package ppm

import (
	"fmt"
	"math"
)

// Grid is a 2-D patch of gas with Pad-deep ghost frames, stored as
// primitive-variable arrays in row-major padded layout.
type Grid struct {
	W, H int // interior zones
	// stride = W + 2 Pad.
	Rho, U, V, P []float64
}

// NewGrid allocates a quiescent (ρ=1, p=1) grid.
func NewGrid(w, h int) (*Grid, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("ppm: grid %dx%d invalid", w, h)
	}
	n := (w + 2*Pad) * (h + 2*Pad)
	g := &Grid{
		W: w, H: h,
		Rho: make([]float64, n), U: make([]float64, n),
		V: make([]float64, n), P: make([]float64, n),
	}
	for i := range g.Rho {
		g.Rho[i] = 1
		g.P[i] = 1
	}
	return g, nil
}

// Stride reports the padded row length.
func (g *Grid) Stride() int { return g.W + 2*Pad }

// Idx addresses zone (i,j) where (0,0) is the first interior zone.
func (g *Grid) Idx(i, j int) int { return (j+Pad)*g.Stride() + (i + Pad) }

// Set assigns primitives at interior zone (i,j).
func (g *Grid) Set(i, j int, rho, u, v, p float64) {
	at := g.Idx(i, j)
	g.Rho[at], g.U[at], g.V[at], g.P[at] = rho, u, v, p
}

// At reads primitives at interior zone (i,j).
func (g *Grid) At(i, j int) (rho, u, v, p float64) {
	at := g.Idx(i, j)
	return g.Rho[at], g.U[at], g.V[at], g.P[at]
}

// fillGhosts fills the ghost frame from the opposite edge of the
// interior: the domain is periodic in both directions.
func (g *Grid) fillGhosts() {
	s := g.Stride()
	rows := g.H + 2*Pad
	wrap := func(v, n int) int { return ((v-Pad)%n+n)%n + Pad }
	for j := 0; j < rows; j++ {
		for i := 0; i < s; i++ {
			inJ := j >= Pad && j < g.H+Pad
			inI := i >= Pad && i < g.W+Pad
			if inI && inJ {
				continue
			}
			si, sj := wrap(i, g.W), wrap(j, g.H)
			dst := j*s + i
			src := sj*s + si
			g.Rho[dst] = g.Rho[src]
			g.U[dst] = g.U[src]
			g.V[dst] = g.V[src]
			g.P[dst] = g.P[src]
		}
	}
}

// MaxWavespeed scans the interior.
func (g *Grid) MaxWavespeed() float64 {
	var m float64
	for j := 0; j < g.H; j++ {
		base := g.Idx(0, j)
		for i := 0; i < g.W; i++ {
			at := base + i
			c := math.Sqrt(Gamma * g.P[at] / g.Rho[at])
			s := math.Max(math.Abs(g.U[at]), math.Abs(g.V[at])) + c
			if s > m {
				m = s
			}
		}
	}
	return m
}

// SweepX applies the x-direction PPM sweep to every row, updating cells
// [3, W+2Pad-3) of each padded row — interior plus one ghost column
// margin, so the subsequent y-sweep sees x-updated data in its stencil.
func (g *Grid) SweepX(dtdx float64, pc *Pencil) {
	s := g.Stride()
	rows := g.H + 2*Pad
	for j := 0; j < rows; j++ {
		row := j * s
		copy(pc.Rho[:s], g.Rho[row:row+s])
		copy(pc.U[:s], g.U[row:row+s])
		copy(pc.V[:s], g.V[row:row+s])
		copy(pc.P[:s], g.P[row:row+s])
		pc.Sweep(3, s-3, dtdx)
		copy(g.Rho[row+3:row+s-3], pc.Rho[3:s-3])
		copy(g.U[row+3:row+s-3], pc.U[3:s-3])
		copy(g.V[row+3:row+s-3], pc.V[3:s-3])
		copy(g.P[row+3:row+s-3], pc.P[3:s-3])
	}
}

// SweepY applies the y-direction sweep to the interior columns. The
// transverse velocity swaps roles: the pencil's U is the sweep-direction
// velocity (v), and V carries u.
func (g *Grid) SweepY(dtdy float64, pc *Pencil) {
	s := g.Stride()
	rows := g.H + 2*Pad
	for i := Pad; i < g.W+Pad; i++ {
		for j := 0; j < rows; j++ {
			at := j*s + i
			pc.Rho[j] = g.Rho[at]
			pc.U[j] = g.V[at] // sweep-direction velocity
			pc.V[j] = g.U[at]
			pc.P[j] = g.P[at]
		}
		pc.Sweep(Pad-1, g.H+Pad+1, dtdy)
		for j := Pad - 1; j < g.H+Pad+1; j++ {
			at := j*s + i
			g.Rho[at] = pc.Rho[j]
			g.V[at] = pc.U[j]
			g.U[at] = pc.V[j]
			g.P[at] = pc.P[j]
		}
	}
}

// Step advances the periodic grid one split timestep with the given
// CFL number, returning dt. Zone spacing is unity.
//
//simlint:allow deadexport single-grid reference amr's TestAMRMatchesSingleGridWhileUnrefined compares block evolution against
func (g *Grid) Step(cfl float64, pc *Pencil) float64 {
	g.fillGhosts()
	smax := g.MaxWavespeed()
	dt := cfl / math.Max(smax, 1e-12)
	g.SweepX(dt, pc)
	g.SweepY(dt, pc)
	return dt
}

// TotalMass sums ρ over the interior.
//
//simlint:allow deadexport conservation oracle the ppm and amr tests compare evolved states against
func (g *Grid) TotalMass() float64 {
	var m float64
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			m += g.Rho[g.Idx(i, j)]
		}
	}
	return m
}
