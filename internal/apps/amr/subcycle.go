package amr

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting it also deletes its 4 dedicated tests (queued on ROADMAP)

import "math"

// StepSubcycled advances the composite solution with Berger–Oliger
// per-level timesteps: a block at level L takes 2^L substeps of dt/2^L,
// so coarse blocks are not dragged down to the finest CFL limit — the
// second half of the AMR efficiency argument (the first being spatial).
// Fine-block ghosts next to coarser leaves use the already-advanced
// coarse state (first-order in time at the interface; PARAMESH offers
// the same shortcut). It returns the coarse (root-level) dt.
//
// Documented simplification, as in Step: no refluxing at coarse-fine
// interfaces, so conservation holds to truncation error there.
func (d *Domain) StepSubcycled() float64 {
	d.step++
	if d.step%d.RegridInterval == 1 && d.step > 1 {
		d.Regrid()
	}
	var smax float64
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		if s := b.grid.MaxWavespeed(); s > smax {
			smax = s
		}
	}
	// Root-level dt; each level L advances at dt/2^L, which satisfies
	// its own CFL because its cells are 2^L times smaller.
	dt := d.CFL * cellSize(0) / math.Max(smax, 1e-12)
	d.advanceLevel(0, dt)
	return dt
}

// advanceLevel advances every leaf at exactly `level` by dt, then
// recursively advances the finer levels twice with half the step.
func (d *Domain) advanceLevel(level int, dt float64) {
	var mine []*block
	deeper := false
	for _, b := range d.blocks {
		if !b.leaf {
			continue
		}
		if b.level == level {
			mine = append(mine, b)
		} else if b.level > level {
			deeper = true
		}
	}
	// Ghost fill for this level from the composite state, then sweep.
	for _, b := range mine {
		d.fillGhosts(b)
	}
	for _, b := range mine {
		dtdx := dt / cellSize(b.level)
		b.grid.SweepX(dtdx, d.pencil)
		b.grid.SweepY(dtdx, d.pencil)
		d.ZoneUpdates += BlockSize * BlockSize
	}
	if deeper {
		d.advanceLevel(level+1, dt/2)
		d.advanceLevel(level+1, dt/2)
	}
}
