package fem

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting mesh.go and solver.go also deletes the 11 fem tests that exercise them (queued on ROADMAP)

import "math"

// Gamma is the ideal-gas adiabatic index.
const Gamma = 1.4

// NVars is the number of conserved variables per point:
// ρ, ρu, ρv, E.
const NVars = 4

// State is the conserved-variable field over the mesh points plus the
// solver scratch arrays (residual and dissipation accumulators).
type State struct {
	Mesh *Mesh
	// U[4p..4p+3] = ρ, ρu, ρv, E at point p.
	U []float64
	// Res and Diss are the element-to-point scatter-add targets.
	Res  []float64
	Diss []float64
	// CFL is the timestep safety factor.
	CFL float64
	// Nu scales the Lax–Friedrichs dissipation.
	Nu float64

	// scratch for the vector-style coding
	vecUbar, vecFx, vecGy []float64
}

// NewState allocates a state over the mesh with uniform quiescent gas.
func NewState(m *Mesh) *State {
	s := &State{
		Mesh: m,
		U:    make([]float64, NVars*m.NumPoints()),
		Res:  make([]float64, NVars*m.NumPoints()),
		Diss: make([]float64, NVars*m.NumPoints()),
		CFL:  0.4,
		Nu:   0.6,
	}
	for p := 0; p < m.NumPoints(); p++ {
		s.SetPrimitive(p, 1, 0, 0, 1)
	}
	return s
}

// SetPrimitive sets point p from primitive variables (ρ, u, v, pressure).
func (s *State) SetPrimitive(p int, rho, u, v, pr float64) {
	s.U[4*p] = rho
	s.U[4*p+1] = rho * u
	s.U[4*p+2] = rho * v
	s.U[4*p+3] = pr/(Gamma-1) + 0.5*rho*(u*u+v*v)
}

// Primitive recovers (ρ, u, v, pressure) at point p.
func (s *State) Primitive(p int) (rho, u, v, pr float64) {
	rho = s.U[4*p]
	u = s.U[4*p+1] / rho
	v = s.U[4*p+2] / rho
	pr = (Gamma - 1) * (s.U[4*p+3] - 0.5*rho*(u*u+v*v))
	return
}

// flux evaluates the x- and y-direction Euler fluxes of a state vector.
func flux(u0, u1, u2, u3 float64) (fx, gx [NVars]float64) {
	rho := u0
	if rho < 1e-12 {
		rho = 1e-12
	}
	vx := u1 / rho
	vy := u2 / rho
	pr := (Gamma - 1) * (u3 - 0.5*rho*(vx*vx+vy*vy))
	if pr < 0 {
		pr = 0
	}
	fx[0] = u1
	fx[1] = u1*vx + pr
	fx[2] = u1 * vy
	fx[3] = (u3 + pr) * vx
	gx[0] = u2
	gx[1] = u2 * vx
	gx[2] = u2*vy + pr
	gx[3] = (u3 + pr) * vy
	return
}

// MaxWavespeed scans the points for the largest |v|+c — the first class
// of global communication (the timestep reduction).
func (s *State) MaxWavespeed() float64 {
	return s.MaxWavespeedRange(0, s.Mesh.NumPoints())
}

// MaxWavespeedRange scans points [lo,hi).
func (s *State) MaxWavespeedRange(lo, hi int) float64 {
	var smax float64
	for p := lo; p < hi; p++ {
		rho, u, v, pr := s.Primitive(p)
		if rho < 1e-12 || pr < 0 {
			continue
		}
		c := math.Sqrt(Gamma * pr / rho)
		sp := math.Sqrt(u*u+v*v) + c
		if sp > smax {
			smax = sp
		}
	}
	return smax
}

// ElementPhase computes the residual and dissipation contributions of
// elements [lo,hi): the gather (3 point states per element) followed by
// the scatter-add into Res/Diss. The caller zeroes Res/Diss first.
func (s *State) ElementPhase(lo, hi int) {
	m := s.Mesh
	for e := lo; e < hi; e++ {
		a := int(m.Tri[3*e])
		b := int(m.Tri[3*e+1])
		c := int(m.Tri[3*e+2])
		// Gather: element-mean state.
		var ubar [NVars]float64
		for k := 0; k < NVars; k++ {
			ubar[k] = (s.U[4*a+k] + s.U[4*b+k] + s.U[4*c+k]) / 3
		}
		fx, gy := flux(ubar[0], ubar[1], ubar[2], ubar[3])
		// Scatter-add: Galerkin residual −∫φ_k ∇·F ≈ ½(b_k F + c_k G)
		// (the basis coefficients already carry the 2A normalization),
		// plus Lax–Friedrichs dissipation toward the element mean.
		for ki, p := range [3]int{a, b, c} {
			bk := m.B[3*e+ki] / 2
			ck := m.C[3*e+ki] / 2
			for k := 0; k < NVars; k++ {
				s.Res[4*p+k] += bk*fx[k] + ck*gy[k]
				s.Diss[4*p+k] += (ubar[k] - s.U[4*p+k]) * m.Area[e] / 3
			}
		}
	}
}

// ElementPhaseVector is the "second coding of the same numerics" that
// Fig. 7's small2 curve measures: a vector-style organization that
// splits the element loop into two streaming passes — first evaluate
// all element means and fluxes into scratch arrays (redundantly, with
// no indirection in the inner loop), then scatter the precomputed
// contributions. More memory traffic and arithmetic, simpler loops.
// The accumulated residuals are identical to ElementPhase's.
func (s *State) ElementPhaseVector(lo, hi int) {
	m := s.Mesh
	n := hi - lo
	if cap(s.vecUbar) < n*NVars {
		s.vecUbar = make([]float64, n*NVars)
		s.vecFx = make([]float64, n*NVars)
		s.vecGy = make([]float64, n*NVars)
	}
	ubar := s.vecUbar[:n*NVars]
	fxs := s.vecFx[:n*NVars]
	gys := s.vecGy[:n*NVars]
	// Pass 1: gather and evaluate fluxes, streaming through scratch.
	for e := lo; e < hi; e++ {
		a := int(m.Tri[3*e])
		b := int(m.Tri[3*e+1])
		c := int(m.Tri[3*e+2])
		at := (e - lo) * NVars
		for k := 0; k < NVars; k++ {
			ubar[at+k] = (s.U[4*a+k] + s.U[4*b+k] + s.U[4*c+k]) / 3
		}
		fx, gy := flux(ubar[at], ubar[at+1], ubar[at+2], ubar[at+3])
		copy(fxs[at:at+NVars], fx[:])
		copy(gys[at:at+NVars], gy[:])
	}
	// Pass 2: scatter the precomputed contributions.
	for e := lo; e < hi; e++ {
		at := (e - lo) * NVars
		for ki := 0; ki < 3; ki++ {
			p := int(m.Tri[3*e+ki])
			bk := m.B[3*e+ki] / 2
			ck := m.C[3*e+ki] / 2
			for k := 0; k < NVars; k++ {
				s.Res[4*p+k] += bk*fxs[at+k] + ck*gys[at+k]
				s.Diss[4*p+k] += (ubar[at+k] - s.U[4*p+k]) * m.Area[e] / 3
			}
		}
	}
}

// PointPhase applies the accumulated residuals to points [lo,hi) with
// the lumped mass matrix and clears their accumulators.
func (s *State) PointPhase(lo, hi, _pad int, dt float64) {
	m := s.Mesh
	for p := lo; p < hi; p++ {
		inv := dt / m.LumpedMass[p]
		for k := 0; k < NVars; k++ {
			s.U[4*p+k] += inv*s.Res[4*p+k] + s.Nu*s.Diss[4*p+k]/m.LumpedMass[p]
			s.Res[4*p+k] = 0
			s.Diss[4*p+k] = 0
		}
	}
}

// Step advances the whole field one timestep and returns dt.
func (s *State) Step() float64 {
	smax := s.MaxWavespeed()
	h := math.Sqrt(2 * s.Mesh.Area[0]) // representative edge scale
	dt := s.CFL * h / math.Max(smax, 1e-12)
	s.ElementPhase(0, s.Mesh.NumElements())
	s.PointPhase(0, s.Mesh.NumPoints(), 0, dt)
	return dt
}

// Conserved sums the conserved variables weighted by lumped mass.
func (s *State) Conserved() [NVars]float64 {
	var tot [NVars]float64
	for p := 0; p < s.Mesh.NumPoints(); p++ {
		for k := 0; k < NVars; k++ {
			tot[k] += s.U[4*p+k] * s.Mesh.LumpedMass[p]
		}
	}
	return tot
}
