package amr

import (
	"fmt"
	"math"
	"testing"

	"spp1000/internal/apps/ppm"
)

func TestUniformFlowNoRefinement(t *testing.T) {
	d, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRegion(func(x, y float64) (float64, float64, float64, float64) {
		return 1.2, 0.3, -0.1, 2.0
	})
	for s := 0; s < 10; s++ {
		d.Step()
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if _, leaves := d.Blocks(); leaves != 6 {
		t.Fatalf("uniform flow refined: %d leaves, want 6 roots", leaves)
	}
	rho, u, v, p := d.Sample(10, 10)
	if math.Abs(rho-1.2) > 1e-10 || math.Abs(u-0.3) > 1e-10 ||
		math.Abs(v+0.1) > 1e-10 || math.Abs(p-2.0) > 1e-9 {
		t.Fatalf("uniform flow disturbed: %v %v %v %v", rho, u, v, p)
	}
}

// shockInit is a Sod-like double discontinuity on the periodic domain.
func shockInit(w float64) func(x, y float64) (float64, float64, float64, float64) {
	return func(x, y float64) (float64, float64, float64, float64) {
		if x > w/4 && x < 3*w/4 {
			return 1.0, 0, 0, 1.0
		}
		return 0.125, 0, 0, 0.1
	}
}

func TestShockTriggersRefinement(t *testing.T) {
	d, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := float64(4 * BlockSize)
	d.SetRegion(shockInit(w))
	m0 := d.TotalMass()
	for s := 0; s < 12; s++ {
		d.Step()
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	if lvl := d.MaxLevel(); lvl < 1 {
		t.Fatal("discontinuities should have triggered refinement")
	}
	// Refinement tracks the discontinuities: blocks near x=w/4 are
	// finer than blocks far away.
	nearLevel := d.leafAt(w/4, 8).level
	farLevel := d.leafAt(w/2, 8).level
	if nearLevel <= farLevel {
		t.Fatalf("refinement not localized: near=%d far=%d", nearLevel, farLevel)
	}
	// Conservation within interface truncation error (no flux
	// correction — documented).
	if rel := math.Abs(d.TotalMass()-m0) / m0; rel > 0.01 {
		t.Fatalf("mass drifted %.3f%%", rel*100)
	}
	// Solution stays physical.
	for x := 0.5; x < w; x += 1 {
		rho, _, _, p := d.Sample(x, 8)
		if rho <= 0 || p <= 0 || math.IsNaN(rho) || rho > 1.2 {
			t.Fatalf("unphysical state at x=%v: rho=%v p=%v", x, rho, p)
		}
	}
}

func TestAMRCheaperThanUniformFine(t *testing.T) {
	d, _ := New(4, 1)
	w := float64(4 * BlockSize)
	d.SetRegion(shockInit(w))
	steps := 10
	for s := 0; s < steps; s++ {
		d.Step()
	}
	maxLvl := d.MaxLevel()
	if maxLvl < 1 {
		t.Skip("no refinement happened")
	}
	// Equivalent uniform grid at the finest resolution.
	fineZones := int64(4*BlockSize*BlockSize) << (2 * uint(maxLvl))
	uniformUpdates := fineZones * int64(steps)
	if d.ZoneUpdates >= uniformUpdates {
		t.Fatalf("AMR (%d zone updates) should beat uniform fine (%d)",
			d.ZoneUpdates, uniformUpdates)
	}
	t.Logf("AMR efficiency: %d vs uniform %d (%.1fx saved)",
		d.ZoneUpdates, uniformUpdates, float64(uniformUpdates)/float64(d.ZoneUpdates))
}

func TestDerefinementAfterSmoothing(t *testing.T) {
	d, _ := New(2, 2)
	w := float64(2 * BlockSize)
	// Sharp bump: refine.
	d.SetRegion(func(x, y float64) (float64, float64, float64, float64) {
		dx, dy := x-w/2, y-w/2
		if dx*dx+dy*dy < 9 {
			return 3.0, 0, 0, 3.0
		}
		return 1, 0, 0, 1
	})
	d.Regrid()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_, refined := d.Blocks()
	if refined <= 4 {
		t.Fatal("bump should have refined some blocks")
	}
	// Overwrite with a uniform field: everything smooth again.
	d.SetRegion(func(x, y float64) (float64, float64, float64, float64) {
		return 1, 0, 0, 1
	})
	for i := 0; i < MaxLevels; i++ {
		d.Regrid()
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, leaves := d.Blocks(); leaves != 4 {
		t.Fatalf("smooth field should derefine to 4 roots, have %d leaves", leaves)
	}
}

func TestAMRMatchesSingleGridWhileUnrefined(t *testing.T) {
	// Below the refinement threshold, an AMR domain of root blocks must
	// evolve exactly like the equivalent plain periodic PPM grid.
	d, _ := New(2, 2)
	g, err := ppm.NewGrid(2*BlockSize, 2*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	init := func(x, y float64) (float64, float64, float64, float64) {
		// Gentle wave: below the refine threshold.
		return 1 + 0.02*math.Sin(2*math.Pi*x/float64(2*BlockSize)), 0.1, 0, 1
	}
	d.SetRegion(init)
	for j := 0; j < 2*BlockSize; j++ {
		for i := 0; i < 2*BlockSize; i++ {
			rho, u, v, p := init(float64(i)+0.5, float64(j)+0.5)
			g.Set(i, j, rho, u, v, p)
		}
	}
	pc := ppm.NewPencil(2*BlockSize + 2*ppm.Pad)
	for s := 0; s < 5; s++ {
		d.Step()
		g.Step(0.4, pc)
	}
	if lvl := d.MaxLevel(); lvl != 0 {
		t.Fatalf("gentle wave refined to level %d", lvl)
	}
	for j := 0; j < 2*BlockSize; j += 3 {
		for i := 0; i < 2*BlockSize; i += 3 {
			r1, _, _, _ := d.Sample(float64(i)+0.5, float64(j)+0.5)
			r2, _, _, _ := g.At(i, j)
			if math.Abs(r1-r2) > 1e-10 {
				t.Fatalf("AMR diverged from plain grid at (%d,%d): %v vs %v", i, j, r1, r2)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Fatal("invalid tiling should be rejected")
	}
}

func TestSamplePeriodicWrap(t *testing.T) {
	d, _ := New(2, 2)
	d.SetRegion(func(x, y float64) (float64, float64, float64, float64) {
		return 1 + x/100, 0, 0, 1
	})
	w := float64(2 * BlockSize)
	r1, _, _, _ := d.Sample(0.5, 0.5)
	r2, _, _, _ := d.Sample(0.5+w, 0.5+w)
	r3, _, _, _ := d.Sample(0.5-w, 0.5)
	if r1 != r2 || r1 != r3 {
		t.Fatalf("periodic sampling broken: %v %v %v", r1, r2, r3)
	}
}

// Sample returns the solution at the zone of the covering leaf under
// the physical point (x, y) in root-zone units (periodic wrap).
func (d *Domain) Sample(x, y float64) (rho, u, v, p float64) {
	W := float64(d.RootW * BlockSize)
	H := float64(d.RootH * BlockSize)
	x = math.Mod(math.Mod(x, W)+W, W)
	y = math.Mod(math.Mod(y, H)+H, H)
	b := d.leafAt(x, y)
	h := cellSize(b.level)
	i := int(x/h) - b.bi*BlockSize
	j := int(y/h) - b.bj*BlockSize
	i = clamp(i, 0, BlockSize-1)
	j = clamp(j, 0, BlockSize-1)
	return b.grid.At(i, j)
}

// TotalMass integrates ρ over the composite domain (area-weighted).
func (d *Domain) TotalMass() float64 {
	var m float64
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		h := cellSize(b.level)
		m += b.grid.TotalMass() * h * h
	}
	return m
}

// CheckInvariants validates the quadtree: leaves partition the domain
// (area sums to the root area), the index is consistent, and neighbour
// levels respect 2:1 balance.
func (d *Domain) CheckInvariants() error {
	var area float64
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		h := cellSize(b.level)
		side := float64(BlockSize) * h
		area += side * side
		if got := d.index[[3]int{b.level, b.bi, b.bj}]; d.blocks[got] != b {
			return fmt.Errorf("amr: index inconsistent for block L%d (%d,%d)", b.level, b.bi, b.bj)
		}
	}
	want := float64(d.RootW*BlockSize) * float64(d.RootH*BlockSize)
	if math.Abs(area-want) > 1e-6 {
		return fmt.Errorf("amr: leaves cover area %v, domain is %v", area, want)
	}
	// 2:1 balance at edge midpoints.
	for _, b := range d.blocks {
		if b.leaf && d.neighbourNeedsMe(b) && b.level < MaxLevels-1 {
			return fmt.Errorf("amr: 2:1 balance violated at block L%d (%d,%d)", b.level, b.bi, b.bj)
		}
	}
	return nil
}
