package main

import (
	"fmt"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/pic"
)

// bigProcs is the full 128-CPU machine (16 hypernodes).
const bigProcs = 128

// bigSim is one 128-CPU simulation of the bigsim workload.
type bigSim struct {
	name string
	run  func(steps int) (string, error)
}

// Result types without their String methods, whose rounding would hide
// differences: %+v of these prints every field at full precision.
type (
	picResult pic.Result
	femResult fem.Result
)

// bigSims are PIC (small mesh) and FEM (large grid, gather-scatter),
// each on the monolithic and the partitioned (PDES) engine.
var bigSims = []bigSim{
	{"apps.pic128.mono", func(steps int) (string, error) {
		r, err := pic.RunShared(pic.Small, bigProcs, steps)
		return fmt.Sprintf("%+v", picResult(r)), err
	}},
	{"apps.pic128.pdes", func(steps int) (string, error) {
		r, err := pic.RunSharedPar(pic.Small, bigProcs, steps)
		return fmt.Sprintf("%+v", picResult(r)), err
	}},
	{"apps.fem128.mono", func(steps int) (string, error) {
		r, err := fem.Run(fem.LargeGrid, fem.GatherScatter, bigProcs, steps)
		return fmt.Sprintf("%+v", femResult(r)), err
	}},
	{"apps.fem128.pdes", func(steps int) (string, error) {
		r, err := fem.RunPar(fem.LargeGrid, fem.GatherScatter, bigProcs, steps)
		return fmt.Sprintf("%+v", femResult(r)), err
	}},
}

// bigsimBench is the bigsim workload: long 128-CPU runs in which
// simulated events outweigh machine construction. The seed sets the
// step count, 100 to 104.
type bigsimBench struct {
	steps int
	chk   *checker
}

func setupBigsim(cfg config, chk *checker) (bench, error) {
	// Warm-up: two steps of each simulation.
	for _, s := range bigSims {
		if _, err := s.run(2); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return &bigsimBench{steps: 100 + int(cfg.seed%5), chk: chk}, nil
}

func (b *bigsimBench) pass(tr *tracer, parent int) (tally, error) {
	tr.nameLane(1, "simulations")
	for i, s := range bigSims {
		var out string
		err := tr.do(s.name, parent, i+1, 1, func(int) error {
			var err error
			out, err = s.run(b.steps)
			return err
		})
		if err != nil {
			return tally{}, fmt.Errorf("%s: %w", s.name, err)
		}
		if err := b.chk.check(s.name, digest(out)); err != nil {
			return tally{}, err
		}
	}
	return tally{ops: len(bigSims), sims: len(bigSims)}, nil
}

func (b *bigsimBench) reconcile(t tally) (int, error) { return t.sims, nil }
func (b *bigsimBench) summary(r *report)              { r.note("bigsim steps=%d procs=%d", b.steps, bigProcs) }
func (b *bigsimBench) close() error                   { return nil }
