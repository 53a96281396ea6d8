// Package pic models the paper's 3-D electrostatic plasma
// particle-in-cell code (§5.1): cloud-in-cell charge deposition, an
// FFT-based periodic Poisson solve in wavenumber space, electric-field
// gather, and a second-order leapfrog push, on the paper's beam-plasma
// problem (8 background electrons and 1 beam electron per mesh cell).
// A run's machine timing comes from playing the per-step work of
// counts.go's cost model through the simulator (see runner.go).
package pic

import "fmt"

// Size describes the periodic mesh. Particle count follows the paper's
// loading: 9 particles per cell (8 plasma + 1 beam).
type Size struct {
	NX, NY, NZ int
}

// Cells reports the number of mesh cells.
func (s Size) Cells() int { return s.NX * s.NY * s.NZ }

// Particles reports the particle count (9 per cell, paper §5.1.1).
func (s Size) Particles() int { return 9 * s.Cells() }

func (s Size) String() string { return fmt.Sprintf("%dx%dx%d", s.NX, s.NY, s.NZ) }

// The paper's two calculations (Table 1).
var (
	Small = Size{32, 32, 32} //   294 912 particles
	Large = Size{64, 64, 32} // 1 179 648 particles
)
