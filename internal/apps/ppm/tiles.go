package ppm

import (
	"fmt"
	"math"
)

// TiledDomain decomposes a W×H domain into tx×ty rectangular tiles,
// each with its own Pad-deep ghost frame (paper §5.4). The only
// communication is the once-per-step ghost exchange between adjacent
// tiles plus the global timestep reduction.
type TiledDomain struct {
	W, H   int
	TX, TY int
	BC     BC
	CFL    float64
	Tiles  []*Grid // row-major tile order
	pencil *Pencil
	// ExchangedBytes counts ghost-exchange traffic (for the
	// performance model and diagnostics).
	ExchangedBytes int64
}

// NewTiled builds the decomposition; tile edges must divide the domain.
func NewTiled(w, h, tx, ty int, bc BC) (*TiledDomain, error) {
	if tx < 1 || ty < 1 || w%tx != 0 || h%ty != 0 {
		return nil, fmt.Errorf("ppm: %dx%d domain not divisible into %dx%d tiles", w, h, tx, ty)
	}
	tw, th := w/tx, h/ty
	if tw < Pad || th < Pad {
		return nil, fmt.Errorf("ppm: tile %dx%d smaller than the ghost frame", tw, th)
	}
	d := &TiledDomain{W: w, H: h, TX: tx, TY: ty, BC: bc, CFL: 0.4}
	for j := 0; j < ty; j++ {
		for i := 0; i < tx; i++ {
			g, err := NewGrid(tw, th)
			if err != nil {
				return nil, err
			}
			d.Tiles = append(d.Tiles, g)
		}
	}
	n := tw + 2*Pad
	if th+2*Pad > n {
		n = th + 2*Pad
	}
	d.pencil = NewPencil(n)
	return d, nil
}

// TileW reports the interior tile width.
func (d *TiledDomain) TileW() int { return d.W / d.TX }

// TileH reports the interior tile height.
func (d *TiledDomain) TileH() int { return d.H / d.TY }

// tile returns the tile at tile-coordinates (ti, tj).
func (d *TiledDomain) tile(ti, tj int) *Grid { return d.Tiles[tj*d.TX+ti] }

// Set assigns primitives at global zone (i, j).
func (d *TiledDomain) Set(i, j int, rho, u, v, p float64) {
	tw, th := d.TileW(), d.TileH()
	d.tile(i/tw, j/th).Set(i%tw, j%th, rho, u, v, p)
}

// At reads primitives at global zone (i, j).
func (d *TiledDomain) At(i, j int) (rho, u, v, p float64) {
	tw, th := d.TileW(), d.TileH()
	return d.tile(i/tw, j/th).At(i%tw, j%th)
}

// Exchange fills every tile's ghost frame from its neighbours'
// interiors (or the domain boundary condition at the domain edge).
// This is "four rows of values exchanged between adjacent tiles once
// per time step" (§5.4).
func (d *TiledDomain) Exchange() {
	tw, th := d.TileW(), d.TileH()
	for tj := 0; tj < d.TY; tj++ {
		for ti := 0; ti < d.TX; ti++ {
			g := d.tile(ti, tj)
			s := g.Stride()
			for j := 0; j < th+2*Pad; j++ {
				for i := 0; i < tw+2*Pad; i++ {
					inI := i >= Pad && i < tw+Pad
					inJ := j >= Pad && j < th+Pad
					if inI && inJ {
						continue
					}
					// Global zone this ghost cell shadows.
					gi := ti*tw + i - Pad
					gj := tj*th + j - Pad
					switch d.BC {
					case Periodic:
						gi = ((gi % d.W) + d.W) % d.W
						gj = ((gj % d.H) + d.H) % d.H
					default: // Outflow: clamp to the domain.
						if gi < 0 {
							gi = 0
						}
						if gi >= d.W {
							gi = d.W - 1
						}
						if gj < 0 {
							gj = 0
						}
						if gj >= d.H {
							gj = d.H - 1
						}
					}
					rho, u, v, p := d.At(gi, gj)
					at := j*s + i
					g.Rho[at], g.U[at], g.V[at], g.P[at] = rho, u, v, p
					d.ExchangedBytes += 4 * 8
				}
			}
		}
	}
}

// Step advances the whole tiled domain one timestep: exchange, global
// dt reduction, then the per-tile sweeps.
func (d *TiledDomain) Step() float64 {
	d.Exchange()
	var smax float64
	for _, g := range d.Tiles {
		if s := g.MaxWavespeed(); s > smax {
			smax = s
		}
	}
	dt := d.CFL / math.Max(smax, 1e-12)
	for _, g := range d.Tiles {
		g.StepWithDt(dt, d.pencil)
	}
	return dt
}
