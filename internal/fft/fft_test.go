package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
)

// dft is the O(n²) reference transform.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func approxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestForwardMatchesDFT(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
		}
		want := dft(x)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !approxEq(x[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: FFT[%d] = %v, DFT = %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := Forward(make([]complex128, 12)); err == nil {
		t.Fatal("length 12 should be rejected")
	}
	if err := Inverse(make([]complex128, 0)); err == nil {
		t.Fatal("length 0 should be rejected")
	}
	if _, err := NewGrid3(4, 6, 4); err == nil {
		t.Fatal("6 should be rejected as a grid dimension")
	}
}

// Property: Inverse(Forward(x)) == x.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed uint64, lg uint8) bool {
		n := 1 << (lg%8 + 1)
		r := rng.New(seed)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Float64()*10-5, r.Float64()*10-5)
			orig[i] = x[i]
		}
		if Forward(x) != nil || Inverse(x) != nil {
			return false
		}
		for i := range x {
			if !approxEq(x[i], orig[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — energy preserved up to 1/N scaling.
func TestParsevalProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		n := 64
		r := rng.New(seed)
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if Forward(x) != nil {
			return false
		}
		var freqE float64
		for i := range x {
			freqE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	g, err := NewGrid3(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(r.Float64(), 0)
		orig[i] = g.Data[i]
	}
	if err := Forward3(g); err != nil {
		t.Fatal(err)
	}
	if err := Inverse3(g); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if !approxEq(g.Data[i], orig[i], 1e-9) {
			t.Fatalf("3-D round trip differs at %d: %v vs %v", i, g.Data[i], orig[i])
		}
	}
}

func TestFlopsEstimates(t *testing.T) {
	if Flops(1) != 0 {
		t.Fatal("Flops(1) should be 0")
	}
	if Flops(1024) != int64(5*1024*10) {
		t.Fatalf("Flops(1024) = %d", Flops(1024))
	}
	if Flops3(4, 4, 4) <= 0 {
		t.Fatal("Flops3 should be positive")
	}
}
