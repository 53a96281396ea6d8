// Package pic implements the paper's 3-D electrostatic plasma
// particle-in-cell code (§5.1): cloud-in-cell charge deposition, an
// FFT-based periodic Poisson solve in wavenumber space, electric-field
// gather, and a second-order leapfrog push. The test problem is the
// paper's: a monoenergetic electron beam propagating through a
// Maxwellian background plasma, 8 background electrons and 1 beam
// electron per mesh cell.
//
// The numerics here are real — deposits conserve charge to round-off and
// the field solve inverts the discrete Laplacian exactly — while the
// machine timing of a run is produced by playing the per-step work
// through the simulator (see runner.go).
package pic

import (
	"fmt"
	"math"

	"spp1000/internal/fft"
	"spp1000/internal/rng"
)

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

// Sim is one PIC simulation state.
type Sim struct {
	Size
	Dt float64

	// Particle state (structure-of-arrays).
	X, Y, Z    []float64
	VX, VY, VZ []float64
	Q          []float64 // charge (negative for electrons)

	// Mesh state.
	Rho        []float64 // charge density
	Ex, Ey, Ez []float64 // electric field

	// scratch for the solver
	work       *fft.Grid3
	ex, ey, ez *fft.Grid3

	// NBeam counts beam particles (the first NBeam entries).
	NBeam int
}

// New builds the paper's beam-plasma problem on the given mesh:
// one beam electron per cell drifting along x at three thermal speeds,
// eight background electrons per cell with Maxwellian velocities.
// A uniform neutralizing ion background is implied (the k=0 mode of the
// Poisson solve removes the mean charge).
func New(size Size, seed uint64) (*Sim, error) {
	if !fft.IsPow2(size.NX) || !fft.IsPow2(size.NY) || !fft.IsPow2(size.NZ) {
		return nil, fmt.Errorf("pic: mesh %v must have power-of-two dimensions", size)
	}
	n := size.Particles()
	cells := size.Cells()
	s := &Sim{
		Size: size,
		Dt:   0.1,
		X:    make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		Q:   make([]float64, n),
		Rho: make([]float64, cells),
		Ex:  make([]float64, cells), Ey: make([]float64, cells), Ez: make([]float64, cells),
	}
	var err error
	if s.work, err = fft.NewGrid3(size.NX, size.NY, size.NZ); err != nil {
		return nil, err
	}
	s.ex, _ = fft.NewGrid3(size.NX, size.NY, size.NZ)
	s.ey, _ = fft.NewGrid3(size.NX, size.NY, size.NZ)
	s.ez, _ = fft.NewGrid3(size.NX, size.NY, size.NZ)

	r := rng.New(seed)
	const vth = 1.0
	const beamV = 3.0 * vth
	idx := 0
	s.NBeam = cells
	// One beam electron per cell.
	for k := 0; k < size.NZ; k++ {
		for j := 0; j < size.NY; j++ {
			for i := 0; i < size.NX; i++ {
				s.X[idx] = float64(i) + r.Float64()
				s.Y[idx] = float64(j) + r.Float64()
				s.Z[idx] = float64(k) + r.Float64()
				s.VX[idx] = beamV
				s.Q[idx] = -1.0 / 9.0
				idx++
			}
		}
	}
	// Eight Maxwellian background electrons per cell.
	for k := 0; k < size.NZ; k++ {
		for j := 0; j < size.NY; j++ {
			for i := 0; i < size.NX; i++ {
				for p := 0; p < 8; p++ {
					s.X[idx] = float64(i) + r.Float64()
					s.Y[idx] = float64(j) + r.Float64()
					s.Z[idx] = float64(k) + r.Float64()
					s.VX[idx] = r.Maxwellian(vth)
					s.VY[idx] = r.Maxwellian(vth)
					s.VZ[idx] = r.Maxwellian(vth)
					s.Q[idx] = -1.0 / 9.0
					idx++
				}
			}
		}
	}
	return s, nil
}

func (s *Sim) cell(i, j, k int) int { return i + s.NX*(j+s.NY*k) }

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Deposit scatters particle charge onto the mesh with cloud-in-cell
// (trilinear) weights — the scatter-with-add of paper step 1.
func (s *Sim) Deposit() {
	for i := range s.Rho {
		s.Rho[i] = 0
	}
	s.DepositRange(0, len(s.X), s.Rho)
}

// DepositRange deposits particles [lo,hi) into the given density array
// (used by the parallel variants that deposit into private partials).
func (s *Sim) DepositRange(lo, hi int, rho []float64) {
	nx, ny, nz := s.NX, s.NY, s.NZ
	for p := lo; p < hi; p++ {
		x, y, z := s.X[p], s.Y[p], s.Z[p]
		i0 := int(math.Floor(x))
		j0 := int(math.Floor(y))
		k0 := int(math.Floor(z))
		fx := x - float64(i0)
		fy := y - float64(j0)
		fz := z - float64(k0)
		i0 = wrap(i0, nx)
		j0 = wrap(j0, ny)
		k0 = wrap(k0, nz)
		i1 := wrap(i0+1, nx)
		j1 := wrap(j0+1, ny)
		k1 := wrap(k0+1, nz)
		q := s.Q[p]
		rho[s.cell(i0, j0, k0)] += q * (1 - fx) * (1 - fy) * (1 - fz)
		rho[s.cell(i1, j0, k0)] += q * fx * (1 - fy) * (1 - fz)
		rho[s.cell(i0, j1, k0)] += q * (1 - fx) * fy * (1 - fz)
		rho[s.cell(i1, j1, k0)] += q * fx * fy * (1 - fz)
		rho[s.cell(i0, j0, k1)] += q * (1 - fx) * (1 - fy) * fz
		rho[s.cell(i1, j0, k1)] += q * fx * (1 - fy) * fz
		rho[s.cell(i0, j1, k1)] += q * (1 - fx) * fy * fz
		rho[s.cell(i1, j1, k1)] += q * fx * fy * fz
	}
}

// Solve computes E = −∇φ with ∇²φ = −ρ via FFTs, evaluating the field
// components in wavenumber space (paper §5.1.1: "solving the resulting
// algebraic equation in wavenumber space, and then reversing the
// transforms").
func (s *Sim) Solve() error {
	nx, ny, nz := s.NX, s.NY, s.NZ
	// Mean charge (neutralizing background) is removed by zeroing k=0.
	for i, r := range s.Rho {
		s.work.Data[i] = complex(r, 0)
	}
	if err := fft.Forward3(s.work); err != nil {
		return err
	}
	for k := 0; k < nz; k++ {
		skz := kEff(k, nz)
		for j := 0; j < ny; j++ {
			sky := kEff(j, ny)
			for i := 0; i < nx; i++ {
				skx := kEff(i, nx)
				k2 := skx*skx + sky*sky + skz*skz
				idx := s.work.Index(i, j, k)
				if k2 == 0 {
					s.ex.Data[idx], s.ey.Data[idx], s.ez.Data[idx] = 0, 0, 0
					continue
				}
				phi := s.work.Data[idx] / complex(k2, 0)
				// E = −∇φ → Ê = −i k φ̂ (using the centered-difference
				// effective wavenumber so the gather sees the discrete
				// gradient).
				gx := kGrad(i, nx)
				gy := kGrad(j, ny)
				gz := kGrad(k, nz)
				s.ex.Data[idx] = complex(0, -gx) * phi
				s.ey.Data[idx] = complex(0, -gy) * phi
				s.ez.Data[idx] = complex(0, -gz) * phi
			}
		}
	}
	if err := fft.Inverse3(s.ex); err != nil {
		return err
	}
	if err := fft.Inverse3(s.ey); err != nil {
		return err
	}
	if err := fft.Inverse3(s.ez); err != nil {
		return err
	}
	for i := range s.Ex {
		s.Ex[i] = real(s.ex.Data[i])
		s.Ey[i] = real(s.ey.Data[i])
		s.Ez[i] = real(s.ez.Data[i])
	}
	return nil
}

// kEff is the discrete-Laplacian effective wavenumber 2 sin(πi/n).
func kEff(i, n int) float64 { return 2 * math.Sin(math.Pi*float64(i)/float64(n)) }

// kGrad is the centered-difference effective wavenumber sin(2πi/n).
func kGrad(i, n int) float64 { return math.Sin(2 * math.Pi * float64(i) / float64(n)) }

// GatherPush interpolates E to the particles in [lo,hi) (paper step 3)
// and advances them one leapfrog step (step 4).
func (s *Sim) GatherPush(lo, hi int) {
	nx, ny, nz := s.NX, s.NY, s.NZ
	dt := s.Dt
	const chargeToMass = -1.0 // electrons: q/m < 0; |q| folded into Q weights
	for p := lo; p < hi; p++ {
		x, y, z := s.X[p], s.Y[p], s.Z[p]
		i0 := int(math.Floor(x))
		j0 := int(math.Floor(y))
		k0 := int(math.Floor(z))
		fx := x - float64(i0)
		fy := y - float64(j0)
		fz := z - float64(k0)
		i0 = wrap(i0, nx)
		j0 = wrap(j0, ny)
		k0 = wrap(k0, nz)
		i1 := wrap(i0+1, nx)
		j1 := wrap(j0+1, ny)
		k1 := wrap(k0+1, nz)
		w000 := (1 - fx) * (1 - fy) * (1 - fz)
		w100 := fx * (1 - fy) * (1 - fz)
		w010 := (1 - fx) * fy * (1 - fz)
		w110 := fx * fy * (1 - fz)
		w001 := (1 - fx) * (1 - fy) * fz
		w101 := fx * (1 - fy) * fz
		w011 := (1 - fx) * fy * fz
		w111 := fx * fy * fz
		c000, c100 := s.cell(i0, j0, k0), s.cell(i1, j0, k0)
		c010, c110 := s.cell(i0, j1, k0), s.cell(i1, j1, k0)
		c001, c101 := s.cell(i0, j0, k1), s.cell(i1, j0, k1)
		c011, c111 := s.cell(i0, j1, k1), s.cell(i1, j1, k1)
		ex := w000*s.Ex[c000] + w100*s.Ex[c100] + w010*s.Ex[c010] + w110*s.Ex[c110] +
			w001*s.Ex[c001] + w101*s.Ex[c101] + w011*s.Ex[c011] + w111*s.Ex[c111]
		ey := w000*s.Ey[c000] + w100*s.Ey[c100] + w010*s.Ey[c010] + w110*s.Ey[c110] +
			w001*s.Ey[c001] + w101*s.Ey[c101] + w011*s.Ey[c011] + w111*s.Ey[c111]
		ez := w000*s.Ez[c000] + w100*s.Ez[c100] + w010*s.Ez[c010] + w110*s.Ez[c110] +
			w001*s.Ez[c001] + w101*s.Ez[c101] + w011*s.Ez[c011] + w111*s.Ez[c111]

		s.VX[p] += chargeToMass * ex * dt
		s.VY[p] += chargeToMass * ey * dt
		s.VZ[p] += chargeToMass * ez * dt
		s.X[p] = wrapF(x+s.VX[p]*dt, float64(nx))
		s.Y[p] = wrapF(y+s.VY[p]*dt, float64(ny))
		s.Z[p] = wrapF(z+s.VZ[p]*dt, float64(nz))
	}
}

func wrapF(x, n float64) float64 {
	for x >= n {
		x -= n
	}
	for x < 0 {
		x += n
	}
	return x
}

// Step advances the full simulation by one timestep.
func (s *Sim) Step() error {
	s.Deposit()
	if err := s.Solve(); err != nil {
		return err
	}
	s.GatherPush(0, len(s.X))
	return nil
}

// KineticEnergy reports ½Σv² (unit masses).
func (s *Sim) KineticEnergy() float64 {
	var sum float64
	for p := range s.VX {
		sum += s.VX[p]*s.VX[p] + s.VY[p]*s.VY[p] + s.VZ[p]*s.VZ[p]
	}
	return 0.5 * sum
}

// FieldEnergy reports ½Σ|E|² over the mesh.
func (s *Sim) FieldEnergy() float64 {
	var sum float64
	for i := range s.Ex {
		sum += s.Ex[i]*s.Ex[i] + s.Ey[i]*s.Ey[i] + s.Ez[i]*s.Ez[i]
	}
	return 0.5 * sum
}
