// Package amr implements block-structured adaptive mesh refinement over
// the PPM hydrodynamics kernel — the capability the paper's §5.2 calls
// out as a motivation ("the FEM is naturally suited for adaptive mesh
// refinement, a technique by which high spatial resolution is
// dynamically applied only in the regions where it is determined to be
// necessary") and which two of the paper's authors (MacNeice and Olson)
// later released as PARAMESH.
//
// The design follows PARAMESH's choices: the domain is tiled by
// fixed-size blocks organized in a quadtree; every block has the same
// logical size (BlockSize² interior zones plus the PPM ghost frame);
// refinement halves the cell size; neighbouring leaves differ by at
// most one level; ghost zones are filled from the covering leaves
// (copy at equal level, averaging from finer, piecewise-constant
// prolongation from coarser). Refinement follows a density-gradient
// criterion re-evaluated every RegridInterval steps.
//
// Documented simplification: no flux correction at coarse-fine
// interfaces (PARAMESH also made this optional), so conservation holds
// only to the interface truncation error — the tests bound it.
package amr

import (
	"fmt"
	"math"

	"spp1000/internal/apps/ppm"
)

// BlockSize is the interior zone count per block side.
const BlockSize = 16

// MaxLevels bounds the refinement depth (level 0 = root).
const MaxLevels = 4

// block is one quadtree node. Only leaves carry live solution data.
type block struct {
	level    int
	bi, bj   int // block coordinates at this level
	grid     *ppm.Grid
	parent   int      // index into Domain.blocks, -1 for roots
	children [4]int32 // -1 = none; order (0,0),(1,0),(0,1),(1,1)
	leaf     bool
}

// Domain is an AMR hydrodynamics domain (doubly periodic).
type Domain struct {
	// RootW, RootH are the root-level block counts.
	RootW, RootH int
	CFL          float64
	// RefineThresh / DerefineThresh bound the density-gradient
	// criterion.
	RefineThresh   float64
	DerefineThresh float64
	RegridInterval int

	blocks []*block
	// index maps (level, bi, bj) to a block.
	index map[[3]int]int

	pencil *ppm.Pencil
	step   int

	// ZoneUpdates accumulates leaf-zone updates (the work metric).
	ZoneUpdates int64
}

// New builds a domain of rootW×rootH root blocks (each BlockSize²
// zones) of quiescent gas.
func New(rootW, rootH int) (*Domain, error) {
	if rootW < 1 || rootH < 1 {
		return nil, fmt.Errorf("amr: invalid root tiling %dx%d", rootW, rootH)
	}
	d := &Domain{
		RootW: rootW, RootH: rootH,
		CFL:            0.4,
		RefineThresh:   0.10,
		DerefineThresh: 0.03,
		RegridInterval: 4,
		index:          map[[3]int]int{},
		pencil:         ppm.NewPencil(BlockSize + 2*ppm.Pad + 8),
	}
	for bj := 0; bj < rootH; bj++ {
		for bi := 0; bi < rootW; bi++ {
			if _, err := d.addBlock(0, bi, bj, -1); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func (d *Domain) addBlock(level, bi, bj, parent int) (int, error) {
	g, err := ppm.NewGrid(BlockSize, BlockSize)
	if err != nil {
		return 0, err
	}
	b := &block{
		level: level, bi: bi, bj: bj, grid: g,
		parent: parent, children: [4]int32{-1, -1, -1, -1}, leaf: true,
	}
	d.blocks = append(d.blocks, b)
	idx := len(d.blocks) - 1
	d.index[[3]int{level, bi, bj}] = idx
	return idx, nil
}

// Blocks reports the total and leaf block counts.
func (d *Domain) Blocks() (total, leaves int) {
	for _, b := range d.blocks {
		total++
		if b.leaf {
			leaves++
		}
	}
	return
}

// MaxLevel reports the deepest live refinement level.
func (d *Domain) MaxLevel() int {
	max := 0
	for _, b := range d.blocks {
		if b.leaf && b.level > max {
			max = b.level
		}
	}
	return max
}

// levelDims reports the block-grid dimensions at a level.
func (d *Domain) levelDims(level int) (w, h int) {
	return d.RootW << level, d.RootH << level
}

// cellSize is the physical zone edge length at a level (root zones have
// unit size).
func cellSize(level int) float64 { return 1 / float64(int(1)<<level) }

// SetRegion applies f(x, y) → (rho, u, v, p) over every leaf zone
// center; x and y are in root-zone units.
func (d *Domain) SetRegion(f func(x, y float64) (rho, u, v, p float64)) {
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		h := cellSize(b.level)
		for j := 0; j < BlockSize; j++ {
			for i := 0; i < BlockSize; i++ {
				x := (float64(b.bi*BlockSize+i) + 0.5) * h
				y := (float64(b.bj*BlockSize+j) + 0.5) * h
				rho, u, v, p := f(x, y)
				b.grid.Set(i, j, rho, u, v, p)
			}
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// leafAt walks the quadtree to the leaf covering the point.
func (d *Domain) leafAt(x, y float64) *block {
	bi := int(x) / BlockSize
	bj := int(y) / BlockSize
	idx := d.index[[3]int{0, bi, bj}]
	b := d.blocks[idx]
	for !b.leaf {
		// Which child quadrant covers the point?
		h := cellSize(b.level + 1)
		midX := float64((2*b.bi + 1) * BlockSize)
		midY := float64((2*b.bj + 1) * BlockSize)
		k := 0
		if x >= midX*h {
			k |= 1
		}
		if y >= midY*h {
			k |= 2
		}
		b = d.blocks[b.children[k]]
	}
	return b
}

// cellValue reads the conservative sample of the composite solution for
// a target cell at `level` with global cell coordinates (ci, cj):
// a copy at equal level, an average over finer leaves, or the covering
// coarse cell.
func (d *Domain) cellValue(level, ci, cj int) (rho, u, v, p float64) {
	w, h := d.levelDims(level)
	wc, hc := w*BlockSize, h*BlockSize
	ci = ((ci % wc) + wc) % wc
	cj = ((cj % hc) + hc) % hc
	hsz := cellSize(level)
	x := (float64(ci) + 0.5) * hsz
	y := (float64(cj) + 0.5) * hsz
	leaf := d.leafAt(x, y)
	switch {
	case leaf.level == level:
		return leaf.grid.At(ci-leaf.bi*BlockSize, cj-leaf.bj*BlockSize)
	case leaf.level < level:
		// Coarser: piecewise-constant prolongation.
		dl := level - leaf.level
		return leaf.grid.At(
			clamp((ci>>dl)-leaf.bi*BlockSize, 0, BlockSize-1),
			clamp((cj>>dl)-leaf.bj*BlockSize, 0, BlockSize-1))
	default:
		// Finer: conservative average over the covered fine cells.
		dl := leaf.level - level
		n := 1 << dl
		var sr, su, sv, sp float64
		for fj := 0; fj < n; fj++ {
			for fi := 0; fi < n; fi++ {
				r, uu, vv, pp := d.cellValue(level+dl, ci<<dl+fi, cj<<dl+fj)
				sr += r
				su += uu
				sv += vv
				sp += pp
			}
		}
		f := float64(n * n)
		return sr / f, su / f, sv / f, sp / f
	}
}

// fillGhosts fills one leaf's ghost frame from the composite solution.
func (d *Domain) fillGhosts(b *block) {
	g := b.grid
	s := g.Stride()
	for j := -ppm.Pad; j < BlockSize+ppm.Pad; j++ {
		for i := -ppm.Pad; i < BlockSize+ppm.Pad; i++ {
			if i >= 0 && i < BlockSize && j >= 0 && j < BlockSize {
				continue
			}
			rho, u, v, p := d.cellValue(b.level, b.bi*BlockSize+i, b.bj*BlockSize+j)
			at := (j+ppm.Pad)*s + (i + ppm.Pad)
			g.Rho[at], g.U[at], g.V[at], g.P[at] = rho, u, v, p
		}
	}
}

// Step advances the whole composite solution one timestep (single
// global dt from the finest CFL constraint) and returns dt.
func (d *Domain) Step() float64 {
	d.step++
	if d.step%d.RegridInterval == 1 && d.step > 1 {
		d.Regrid()
	}
	// Ghost fill for all leaves first (so every block sees the
	// pre-step composite state — PARAMESH's guard-cell fill).
	for _, b := range d.blocks {
		if b.leaf {
			d.fillGhosts(b)
		}
	}
	// Global dt: finest level dominates.
	var smax float64
	finest := 0
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		if s := b.grid.MaxWavespeed(); s > smax {
			smax = s
		}
		if b.level > finest {
			finest = b.level
		}
	}
	dt := d.CFL * cellSize(finest) / math.Max(smax, 1e-12)
	// Advance each leaf with its own dt/dx.
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		dtdx := dt / cellSize(b.level)
		b.grid.SweepX(dtdx, d.pencil)
		b.grid.SweepY(dtdx, d.pencil)
		d.ZoneUpdates += BlockSize * BlockSize
	}
	return dt
}

// gradientScore is the refinement criterion: the largest relative
// density jump between adjacent interior zones of the block.
func gradientScore(g *ppm.Grid) float64 {
	var score float64
	for j := 0; j < BlockSize; j++ {
		for i := 0; i < BlockSize; i++ {
			r0, _, _, _ := g.At(i, j)
			if i+1 < BlockSize {
				r1, _, _, _ := g.At(i+1, j)
				if s := math.Abs(r1-r0) / math.Max(r0, 1e-12); s > score {
					score = s
				}
			}
			if j+1 < BlockSize {
				r1, _, _, _ := g.At(i, j+1)
				if s := math.Abs(r1-r0) / math.Max(r0, 1e-12); s > score {
					score = s
				}
			}
		}
	}
	return score
}

// Regrid applies the refinement criterion: refine flagged leaves (up to
// MaxLevels), derefine sibling quartets that are uniformly smooth, and
// restore 2:1 level balance between neighbours.
func (d *Domain) Regrid() {
	// Refine.
	for pass := 0; pass < MaxLevels; pass++ {
		changed := false
		for idx := 0; idx < len(d.blocks); idx++ {
			b := d.blocks[idx]
			if !b.leaf || b.level >= MaxLevels-1 {
				continue
			}
			if gradientScore(b.grid) > d.RefineThresh || d.neighbourNeedsMe(b) {
				d.refine(idx)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Derefine smooth quartets whose parent would stay 2:1 balanced.
	for idx := 0; idx < len(d.blocks); idx++ {
		p := d.blocks[idx]
		if p.leaf {
			continue
		}
		allSmoothLeaves := true
		for _, c := range p.children {
			if c < 0 || !d.blocks[c].leaf ||
				gradientScore(d.blocks[c].grid) > d.DerefineThresh {
				allSmoothLeaves = false
				break
			}
		}
		if allSmoothLeaves && !d.derefineWouldUnbalance(p) {
			d.derefine(idx)
		}
	}
}

// neighbourNeedsMe reports whether a neighbouring leaf is already two
// levels finer — the 2:1 balance rule forces this block to refine.
func (d *Domain) neighbourNeedsMe(b *block) bool {
	h := cellSize(b.level)
	// Probe just outside each edge midpoint and corner.
	probes := [][2]float64{
		{float64(b.bi*BlockSize)*h - 0.01, (float64(b.bj*BlockSize) + float64(BlockSize)/2) * h},
		{float64((b.bi+1)*BlockSize)*h + 0.01, (float64(b.bj*BlockSize) + float64(BlockSize)/2) * h},
		{(float64(b.bi*BlockSize) + float64(BlockSize)/2) * h, float64(b.bj*BlockSize)*h - 0.01},
		{(float64(b.bi*BlockSize) + float64(BlockSize)/2) * h, float64((b.bj+1)*BlockSize)*h + 0.01},
	}
	W := float64(d.RootW * BlockSize)
	H := float64(d.RootH * BlockSize)
	for _, pr := range probes {
		x := math.Mod(math.Mod(pr[0], W)+W, W)
		y := math.Mod(math.Mod(pr[1], H)+H, H)
		if d.leafAt(x, y).level > b.level+1 {
			return true
		}
	}
	return false
}

// derefineWouldUnbalance reports whether collapsing p's children would
// leave a neighbouring leaf more than one level finer than p.
func (d *Domain) derefineWouldUnbalance(p *block) bool {
	h := cellSize(p.level)
	x0 := float64(p.bi*BlockSize) * h
	y0 := float64(p.bj*BlockSize) * h
	x1 := float64((p.bi+1)*BlockSize) * h
	y1 := float64((p.bj+1)*BlockSize) * h
	W := float64(d.RootW * BlockSize)
	H := float64(d.RootH * BlockSize)
	eps := 0.01
	var probes [][2]float64
	steps := 4
	for k := 0; k <= steps; k++ {
		f := float64(k) / float64(steps)
		xs := x0 + f*(x1-x0)
		ys := y0 + f*(y1-y0)
		probes = append(probes,
			[2]float64{xs, y0 - eps}, [2]float64{xs, y1 + eps},
			[2]float64{x0 - eps, ys}, [2]float64{x1 + eps, ys})
	}
	for _, pr := range probes {
		x := math.Mod(math.Mod(pr[0], W)+W, W)
		y := math.Mod(math.Mod(pr[1], H)+H, H)
		if d.leafAt(x, y).level > p.level+1 {
			return true
		}
	}
	return false
}

// refine splits leaf idx into four children, prolongating its data.
func (d *Domain) refine(idx int) {
	b := d.blocks[idx]
	if !b.leaf {
		return
	}
	b.leaf = false
	for k := 0; k < 4; k++ {
		ci := 2*b.bi + (k & 1)
		cj := 2*b.bj + (k >> 1)
		cidx, err := d.addBlock(b.level+1, ci, cj, idx)
		if err != nil {
			panic(err) // BlockSize geometry is fixed; cannot fail
		}
		b = d.blocks[idx] // addBlock may grow the slice
		b.children[k] = int32(cidx)
		child := d.blocks[cidx]
		// Piecewise-constant prolongation from the parent.
		offI := (k & 1) * BlockSize / 2
		offJ := (k >> 1) * BlockSize / 2
		for j := 0; j < BlockSize; j++ {
			for i := 0; i < BlockSize; i++ {
				rho, u, v, p := b.grid.At(offI+i/2, offJ+j/2)
				child.grid.Set(i, j, rho, u, v, p)
			}
		}
	}
}

// derefine restricts four leaf children back into parent idx.
func (d *Domain) derefine(idx int) {
	p := d.blocks[idx]
	for k, c := range p.children {
		child := d.blocks[c]
		offI := (k & 1) * BlockSize / 2
		offJ := (k >> 1) * BlockSize / 2
		for j := 0; j < BlockSize; j += 2 {
			for i := 0; i < BlockSize; i += 2 {
				var sr, su, sv, sp float64
				for fj := 0; fj < 2; fj++ {
					for fi := 0; fi < 2; fi++ {
						r, u, v, pp := child.grid.At(i+fi, j+fj)
						sr += r
						su += u
						sv += v
						sp += pp
					}
				}
				p.grid.Set(offI+i/2, offJ+j/2, sr/4, su/4, sv/4, sp/4)
			}
		}
		delete(d.index, [3]int{child.level, child.bi, child.bj})
		child.leaf = false // orphaned; kept in the slice but unreachable
	}
	p.children = [4]int32{-1, -1, -1, -1}
	p.leaf = true
}
