package c90

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPeak(t *testing.T) {
	m := Default()
	if p := m.PeakMflops(); p != 960 {
		t.Fatalf("peak = %v Mflop/s, want 960", p)
	}
}

func TestVectorRateMonotoneInLength(t *testing.T) {
	m := Default()
	prev := 0.0
	for _, vl := range []float64{1, 8, 64, 512, 4096} {
		r := m.VectorMflops(vl)
		if r <= prev {
			t.Fatalf("vector rate not increasing with length: %v at %v", r, vl)
		}
		prev = r
	}
	if m.VectorMflops(0) != m.ScalarMflops {
		t.Fatal("zero vector length should fall back to scalar rate")
	}
}

func TestCalibratedRates(t *testing.T) {
	m := Default()
	cases := []struct {
		w      Workload
		target float64
		tol    float64
	}{
		{PIC, 362, 25},      // Table 1: 355–369 Mflop/s
		{FEM, 293, 20},      // §5.2.2: ≈293 Mflop/s (hpm)
		{TreeCode, 120, 12}, // §5.3.2: ≈120 Mflop/s
	}
	for _, c := range cases {
		got := m.Rate(c.w)
		if math.Abs(got-c.target) > c.tol {
			t.Errorf("%s C90 rate = %.0f Mflop/s, want ≈%.0f", c.w.Name, got, c.target)
		}
	}
}

func TestTable1CPUTimes(t *testing.T) {
	// Table 1: 32³ mesh run took 112.9 s at 355 Mflop/s → ≈40 Gflop.
	m := Default()
	flops := int64(355e6 * 112.9)
	sec := m.Seconds(flops, PIC.VecLen, PIC.VectorFraction)
	if sec < 90 || sec > 135 {
		t.Fatalf("small PIC run time = %.1f s, want ≈113", sec)
	}
}

func TestSustainedBounded(t *testing.T) {
	m := Default()
	prop := func(rawVl uint16, rawF uint8) bool {
		vl := float64(rawVl%4096) + 1
		f := float64(rawF) / 255
		r := m.SustainedMflops(vl, f)
		// The sustained rate lies between the slower of the two units
		// (short vectors run below scalar speed) and the peak.
		floor := math.Min(m.ScalarMflops, m.VectorMflops(vl)) * 0.99
		return r >= floor && r <= m.PeakMflops()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// Clamping.
	if m.SustainedMflops(100, -1) != m.SustainedMflops(100, 0) {
		t.Fatal("negative fraction should clamp to 0")
	}
	if m.SustainedMflops(100, 2) != m.SustainedMflops(100, 1) {
		t.Fatal("fraction >1 should clamp to 1")
	}
}

func TestSecondsScalesLinearly(t *testing.T) {
	m := Default()
	one := m.Seconds(1e9, 256, 0.9)
	two := m.Seconds(2e9, 256, 0.9)
	if math.Abs(two-2*one) > 1e-9 {
		t.Fatalf("time not linear in flops: %v vs %v", one, two)
	}
}

// Seconds reports the execution time of the given operation count.
func (m Model) Seconds(flops int64, vecLen, vectorFraction float64) float64 {
	rate := m.SustainedMflops(vecLen, vectorFraction) * 1e6
	return float64(flops) / rate
}

// TreeCode is the vectorized public tree code's C90 profile: ≈120
// Mflop/s (§5.3.2).
var TreeCode = Workload{Name: "tree", VecLen: 64, VectorFraction: 0.609}
