package main

import (
	"context"
	"fmt"

	"spp1000/internal/experiments"
	"spp1000/internal/runner"
)

// paperBench is the paper workload: every paper artifact at paper scale
// through experiments.RunMany, the work `sppbench -exp all` does. The
// seed is the suite's Options.Seed, which only the N-body particle set
// of fig8 reads.
type paperBench struct {
	opts experiments.Options
	chk  *checker
}

// setupPaper runs the whole suite once at quick scale, which starts
// every layer a paper pass uses, and checks its renderings.
func setupPaper(cfg config, chk *checker) (bench, error) {
	outs, err := experiments.RunMany(experiments.Names, experiments.Quick())
	if err != nil {
		return nil, err
	}
	for i, name := range experiments.Names {
		if err := chk.check("quick."+name, digest(outs[i])); err != nil {
			return nil, err
		}
	}
	o := experiments.Defaults()
	o.Seed = cfg.seed
	return &paperBench{opts: o, chk: chk}, nil
}

func (b *paperBench) pass(tr *tracer, parent int) (tally, error) {
	names := experiments.Names
	var outs []string
	var err error
	if tr == nil {
		outs, err = experiments.RunMany(names, b.opts)
	} else {
		outs, err = b.traced(tr, parent)
	}
	if err != nil {
		return tally{}, err
	}
	for i, name := range names {
		if err := b.chk.check(name, digest(outs[i])); err != nil {
			return tally{}, err
		}
	}
	return tally{ops: len(names), sims: len(names)}, nil
}

// traced is RunMany's dispatch with a span around each experiment.
func (b *paperBench) traced(tr *tracer, parent int) ([]string, error) {
	ctx := context.Background()
	names := experiments.Names
	return runner.MapCtx(ctx, len(names), func(i int) (string, error) {
		var out string
		tr.nameLane(i+1, names[i])
		err := tr.do("experiments."+names[i], parent, i+1, i+1, func(int) error {
			var err error
			out, err = experiments.RunCtx(ctx, names[i], b.opts)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("%s: %w", names[i], err)
		}
		return out, nil
	})
}

func (b *paperBench) reconcile(t tally) (int, error) { return t.sims, nil }
func (b *paperBench) summary(r *report)              {}
func (b *paperBench) close() error                   { return nil }
