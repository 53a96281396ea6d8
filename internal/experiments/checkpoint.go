package experiments

import (
	"context"
	"fmt"

	"spp1000/internal/snapshot"
)

// RunCheckpointed executes the named experiments serially, saving a
// checkpoint after every completed experiment, so a killed run can
// resume from the completed prefix instead of recomputing it. prior is
// the checkpoint to resume from (nil to start fresh); save persists
// each checkpoint (nil to only build the final one). It returns the
// rendered outputs in name order plus the final checkpoint.
//
// Exactness contract: because every experiment is a pure deterministic
// function of (name, Options), a resumed run's outputs — and with them
// its final checkpoint — are byte-identical to an uninterrupted run's.
// On a ctx cancellation or deadline the completed-prefix checkpoint is
// returned alongside the error: the in-flight experiment is one
// indivisible simulation, so its partial work is discarded, never
// serialized.
//
// Experiments run serially (not through the worker pool at the
// experiment level) so each boundary is a completed prefix of the suite;
// the sweep points inside an experiment still fan out through the pool
// as usual.
func RunCheckpointed(ctx context.Context, names []string, o Options, prior *snapshot.Checkpoint, save func(*snapshot.Checkpoint) error) ([]string, *snapshot.Checkpoint, error) {
	key := Spec{Experiments: names, Options: o}.Key()
	cp := &snapshot.Checkpoint{SpecKey: key, Names: append([]string(nil), names...)}
	if prior != nil {
		if prior.SpecKey != key {
			return nil, nil, fmt.Errorf("experiments: checkpoint is for spec %.12s…, this run is spec %.12s…", prior.SpecKey, key)
		}
		if len(prior.Done) > len(names) {
			return nil, nil, fmt.Errorf("experiments: checkpoint holds %d completed experiments for a %d-experiment suite", len(prior.Done), len(names))
		}
		for i, r := range prior.Done {
			if r.Name != names[i] {
				return nil, nil, fmt.Errorf("experiments: checkpoint experiment %d is %q, suite wants %q", i, r.Name, names[i])
			}
		}
		cp.Done = append(cp.Done, prior.Done...)
	}

	outs := make([]string, 0, len(names))
	for _, r := range cp.Done {
		outs = append(outs, r.Output)
	}

	for i := len(cp.Done); i < len(names); i++ {
		out, err := RunCtx(ctx, names[i], o)
		if err != nil {
			return outs, cp, fmt.Errorf("%s: %w", names[i], err)
		}
		outs = append(outs, out)
		cp.Done = append(cp.Done, snapshot.ExperimentResult{Name: names[i], Output: out})
		if save != nil {
			if err := save(cp); err != nil {
				return outs, cp, fmt.Errorf("experiments: checkpoint after %s: %w", names[i], err)
			}
		}
	}
	return outs, cp, nil
}
