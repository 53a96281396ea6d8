// Package ppm implements the paper's PROMETHEUS-style compressible
// hydrodynamics code (§5.4): the Piecewise-Parabolic Method of Colella &
// Woodward on a structured, logically rectangular 2-D grid, parallelized
// by domain decomposition into rectangular tiles with four-deep "ghost"
// frames exchanged once per timestep.
//
// The 1-D kernel reconstructs primitive variables with PPM interface
// interpolation and monotonicity limiting, then resolves interface
// states with an HLL approximate Riemann solver (a documented
// substitution for PROMETHEUS' two-shock iteration; it preserves the
// shock-capturing behaviour and the per-zone cost structure that Table 2
// measures). Directional splitting applies the kernel along x then y.
package ppm

import "math"

// Gamma is the ideal-gas adiabatic index.
const Gamma = 1.4

// NVars is the conserved-variable count: ρ, ρu, ρv, E.
const NVars = 4

// Pad is the ghost-frame depth (paper §5.4: four grid points).
const Pad = 4

// cons/prim conversion helpers on 4-vectors.

// primFromCons converts conserved (ρ, ρu, ρv, E) to (ρ, u, v, p).
func primFromCons(c [NVars]float64) (rho, u, v, p float64) {
	rho = c[0]
	if rho < 1e-12 {
		rho = 1e-12
	}
	u = c[1] / rho
	v = c[2] / rho
	p = (Gamma - 1) * (c[3] - 0.5*rho*(u*u+v*v))
	if p < 1e-12 {
		p = 1e-12
	}
	return
}

// consFromPrim converts (ρ, u, v, p) to conserved form.
func consFromPrim(rho, u, v, p float64) [NVars]float64 {
	return [NVars]float64{
		rho, rho * u, rho * v,
		p/(Gamma-1) + 0.5*rho*(u*u+v*v),
	}
}

// ppmFaces computes the limited left/right parabola edge values of a
// cell from the five-cell stencil (Colella & Woodward eqs. 1.6–1.10).
func ppmFaces(am2, am1, a0, ap1, ap2 float64) (aL, aR float64) {
	// Fourth-order interface interpolants.
	aR = a0 + 0.5*(ap1-a0) - (1.0/6.0)*(dmq(a0, ap1, ap2)-dmq(am1, a0, ap1))/2
	aL = am1 + 0.5*(a0-am1) - (1.0/6.0)*(dmq(am1, a0, ap1)-dmq(am2, am1, a0))/2
	// Monotonicity constraints.
	if (aR-a0)*(a0-aL) <= 0 {
		return a0, a0
	}
	d := aR - aL
	if d*(a0-0.5*(aL+aR)) > d*d/6 {
		aL = 3*a0 - 2*aR
	}
	if -d*d/6 > d*(a0-0.5*(aL+aR)) {
		aR = 3*a0 - 2*aL
	}
	return aL, aR
}

// dmq is the van-Leer-limited average slope Δa_i (C&W eq. 1.8).
func dmq(am1, a0, ap1 float64) float64 {
	d := 0.5 * (ap1 - am1)
	if (ap1-a0)*(a0-am1) <= 0 {
		return 0
	}
	lim := 2 * math.Min(math.Abs(ap1-a0), math.Abs(a0-am1))
	if math.Abs(d) > lim {
		if d < 0 {
			return -lim
		}
		return lim
	}
	return d
}

// hllFlux evaluates the HLL flux between left and right primitive
// states for a sweep along the first velocity component.
func hllFlux(rhoL, uL, vL, pL, rhoR, uR, vR, pR float64) [NVars]float64 {
	cL := math.Sqrt(Gamma * pL / rhoL)
	cR := math.Sqrt(Gamma * pR / rhoR)
	sL := math.Min(uL-cL, uR-cR)
	sR := math.Max(uL+cL, uR+cR)
	fl := physFlux(rhoL, uL, vL, pL)
	if sL >= 0 {
		return fl
	}
	fr := physFlux(rhoR, uR, vR, pR)
	if sR <= 0 {
		return fr
	}
	ul := consFromPrim(rhoL, uL, vL, pL)
	ur := consFromPrim(rhoR, uR, vR, pR)
	var f [NVars]float64
	inv := 1 / (sR - sL)
	for k := 0; k < NVars; k++ {
		f[k] = (sR*fl[k] - sL*fr[k] + sL*sR*(ur[k]-ul[k])) * inv
	}
	return f
}

// physFlux is the physical Euler flux along the sweep direction.
func physFlux(rho, u, v, p float64) [NVars]float64 {
	e := p/(Gamma-1) + 0.5*rho*(u*u+v*v)
	return [NVars]float64{
		rho * u,
		rho*u*u + p,
		rho * u * v,
		(e + p) * u,
	}
}

// edge is one limited parabola edge value of every primitive.
type edge struct{ rho, u, v, p float64 }

// Pencil is the scratch for one 1-D sweep over n cells (with ghosts).
type Pencil struct {
	Rho, U, V, P []float64 // primitives
	FL           [][NVars]float64
	cons         [][NVars]float64
	left, right  []edge // per-cell limited edges, Sweep scratch
}

// NewPencil allocates scratch for pencils of length n.
func NewPencil(n int) *Pencil {
	return &Pencil{
		Rho: make([]float64, n), U: make([]float64, n),
		V: make([]float64, n), P: make([]float64, n),
		FL:   make([][NVars]float64, n+1),
		cons: make([][NVars]float64, n),
		left: make([]edge, n), right: make([]edge, n),
	}
}

// Sweep advances cells [lo,hi) of the pencil by dt/dx using PPM
// reconstruction and HLL fluxes. The pencil's primitive arrays must be
// filled for at least [lo-3, hi+3); the cons array is used as scratch.
// Results are written back into the primitive arrays for [lo,hi).
func (pc *Pencil) Sweep(lo, hi int, dtdx float64) {
	// Reconstruct interface states: for each interface i+1/2 in
	// [lo-1, hi], the left state is cell i's right edge and the right
	// state is cell i+1's left edge.
	// Compute limited edges for cells [lo-1, hi].
	nCells := hi - lo + 2
	left, right := pc.left[:nCells], pc.right[:nCells]
	for c := 0; c < nCells; c++ {
		i := lo - 1 + c
		rL, rR := ppmFaces(pc.Rho[i-2], pc.Rho[i-1], pc.Rho[i], pc.Rho[i+1], pc.Rho[i+2])
		uL, uR := ppmFaces(pc.U[i-2], pc.U[i-1], pc.U[i], pc.U[i+1], pc.U[i+2])
		vL, vR := ppmFaces(pc.V[i-2], pc.V[i-1], pc.V[i], pc.V[i+1], pc.V[i+2])
		pL, pR := ppmFaces(pc.P[i-2], pc.P[i-1], pc.P[i], pc.P[i+1], pc.P[i+2])
		if rL < 1e-12 {
			rL = 1e-12
		}
		if rR < 1e-12 {
			rR = 1e-12
		}
		if pL < 1e-12 {
			pL = 1e-12
		}
		if pR < 1e-12 {
			pR = 1e-12
		}
		left[c] = edge{rL, uL, vL, pL}
		right[c] = edge{rR, uR, vR, pR}
	}
	// Fluxes at interfaces [lo, hi] (interface i is between cells i-1, i).
	for i := lo; i <= hi; i++ {
		cm := i - 1 - (lo - 1) // cell i-1 in edge arrays
		cp := i - (lo - 1)     // cell i
		l := right[cm]
		r := left[cp]
		pc.FL[i] = hllFlux(l.rho, l.u, l.v, l.p, r.rho, r.u, r.v, r.p)
	}
	// Conservative update.
	for i := lo; i < hi; i++ {
		pc.cons[i] = consFromPrim(pc.Rho[i], pc.U[i], pc.V[i], pc.P[i])
		for k := 0; k < NVars; k++ {
			pc.cons[i][k] -= dtdx * (pc.FL[i+1][k] - pc.FL[i][k])
		}
	}
	for i := lo; i < hi; i++ {
		pc.Rho[i], pc.U[i], pc.V[i], pc.P[i] = primFromCons(pc.cons[i])
	}
}
