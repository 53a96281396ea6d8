package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(1)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %v, want ≈1/12", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(2)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	prop := func(seed uint64, raw uint16) bool {
		n := int(raw)%100 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

// normalsHash hashes the bit patterns of the first n NormFloat64
// values, then of the first n values scaled by 1.5, of a fresh
// generator seeded with seed.
func normalsHash(seed uint64, n int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	r := New(seed)
	for range n {
		put(r.NormFloat64())
	}
	r = New(seed)
	for range n {
		put(1.5 * r.NormFloat64())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The normal stream is pinned: workloads drawn through NormFloat64
// (the N-body sampler's skipped velocity draws) must not move when the
// generator's code does.
func TestNormalStreamPinned(t *testing.T) {
	for i, want := range []string{
		"6d96ef9453caf04cdc86b30246780b3c984baaee1a056769b5bf67e9edf4d88f",
		"43a925fe3f5d67ca7a00c9a11fbcae87a33f64260a681ace24c8699c06edc112",
		"1abab11c69b193734c88766cb43275fc38ecab0867eafaf8db15660764155e0a",
	} {
		seed := uint64(i + 1)
		if got := normalsHash(seed, 100000); got != want {
			t.Errorf("seed %d: normal stream hash %s, pinned %s", seed, got, want)
		}
	}
}

// SkipNormals(k) leaves the generator where k NormFloat64 calls do,
// from a fresh generator and from one holding a cached variate: the
// next 64 Uint64 draws (the xoshiro state) and the next 64 NormFloat64
// draws (the state and the cache) are the same bits.
func TestSkipNormalsMatchesNormFloat64(t *testing.T) {
	for k := range 8 {
		for _, warm := range []bool{false, true} {
			for _, normals := range []bool{false, true} {
				want, got := New(5), New(5)
				if warm {
					want.NormFloat64()
					got.NormFloat64()
				}
				for range k {
					want.NormFloat64()
				}
				got.SkipNormals(k)
				for i := range 64 {
					var w, g uint64
					if normals {
						w, g = math.Float64bits(want.NormFloat64()), math.Float64bits(got.NormFloat64())
					} else {
						w, g = want.Uint64(), got.Uint64()
					}
					if w != g {
						t.Fatalf("k=%d warm=%v normals=%v: draw %d is %#x after SkipNormals, %#x after NormFloat64 calls",
							k, warm, normals, i, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkNormFloat64 draws one normal variate per op.
func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.NormFloat64()
	}
	benchSink = sum
}

// benchSink keeps BenchmarkNormFloat64's draws live.
var benchSink float64
