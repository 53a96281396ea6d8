// Package c90 models a single processor ("head") of a Cray Y-MP C90,
// which the paper uses as its reference machine (§5): flat horizontal
// lines in Figs. 6 and 7 and the Table 1 rates. The model is the classic
// vector-pipeline description: peak rate derated by the n½
// half-performance vector length on the vectorized fraction, and a slow
// scalar unit for the rest (Amdahl in time).
package c90

// Model describes one C90 head.
type Model struct {
	// ClockMHz is the CPU clock (C90: 4.167 ns → 240 MHz).
	ClockMHz float64
	// PeakFlopsPerCycle counts both vector pipes with chained
	// multiply-add (C90: 4 → ~0.96 Gflop/s peak).
	PeakFlopsPerCycle float64
	// NHalf is the half-performance vector length.
	NHalf float64
	// ScalarMflops is the sustained scalar-unit rate.
	ScalarMflops float64
}

// Default returns the calibrated C90 head.
func Default() Model {
	return Model{
		ClockMHz:          240,
		PeakFlopsPerCycle: 4,
		NHalf:             60,
		ScalarMflops:      55,
	}
}

// PeakMflops reports the theoretical peak rate.
func (m Model) PeakMflops() float64 { return m.ClockMHz * m.PeakFlopsPerCycle }

// VectorMflops reports the sustained vector rate at the given average
// vector length.
func (m Model) VectorMflops(vecLen float64) float64 {
	if vecLen <= 0 {
		return m.ScalarMflops
	}
	return m.PeakMflops() * vecLen / (vecLen + m.NHalf)
}

// SustainedMflops reports the overall rate of a code with the given
// vectorized fraction (of operations) at the given mean vector length.
func (m Model) SustainedMflops(vecLen, vectorFraction float64) float64 {
	if vectorFraction < 0 {
		vectorFraction = 0
	}
	if vectorFraction > 1 {
		vectorFraction = 1
	}
	v := m.VectorMflops(vecLen)
	// Time per Mflop = f/v + (1−f)/s; rate is its reciprocal.
	t := vectorFraction/v + (1-vectorFraction)/m.ScalarMflops
	return 1 / t
}

// Workload captures a code's C90 execution profile as the paper reports
// it: the per-run operation count plus the vectorization parameters that
// reproduce the measured sustained rate.
type Workload struct {
	Name           string
	VecLen         float64
	VectorFraction float64
}

// Calibrated workloads reproducing the paper's measured C90 rates:
//
//	PIC:       355–369 Mflop/s (Table 1)
//	FEM:       ≈293 Mflop/s hpm (250 useful, §5.2.2)
var (
	PIC = Workload{Name: "pic", VecLen: 512, VectorFraction: 0.906}
	FEM = Workload{Name: "fem", VecLen: 256, VectorFraction: 0.874}
)

// Rate reports the sustained Mflop/s of a calibrated workload.
func (m Model) Rate(w Workload) float64 {
	return m.SustainedMflops(w.VecLen, w.VectorFraction)
}
