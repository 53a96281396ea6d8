package experiments

import (
	"strings"
	"testing"

	"spp1000/internal/runner"
)

// TestParallelDeterminism is the engine's core invariant: the rendered
// output of the full paper suite must be byte-identical whether the
// independent simulations run serially or fanned out across host
// workers. Everything downstream (golden files, cross-PR perf
// trajectories, the paper comparison itself) leans on this.
func TestParallelDeterminism(t *testing.T) {
	o := Quick()

	runner.SetWorkers(1)
	serialOuts, err := RunMany(Names, o)
	if err != nil {
		runner.SetWorkers(0)
		t.Fatal(err)
	}

	runner.SetWorkers(4)
	parallelOuts, err := RunMany(Names, o)
	runner.SetWorkers(0)
	if err != nil {
		t.Fatal(err)
	}

	serial, parallel := strings.Join(serialOuts, "\n"), strings.Join(parallelOuts, "\n")
	if serial != parallel {
		t.Fatalf("output differs between -par 1 and -par 4:\n--- serial (%d bytes) ---\n%.400s\n--- parallel (%d bytes) ---\n%.400s",
			len(serial), serial, len(parallel), parallel)
	}
	if len(serial) == 0 {
		t.Fatal("the suite produced no output")
	}
}

// TestParallelDeterminismPar8 pins the rng-audit contract: the
// experiments that consume internal/rng (fig6 drives the PIC app, fig7
// the N-body app) must render byte-identically at -par 1 and -par 8.
// Each worker count runs twice so the test also catches state leaking
// between runs, not just between fan-out widths.
func TestParallelDeterminismPar8(t *testing.T) {
	names := []string{"fig6", "fig7"}
	o := Quick()

	run := func(workers int) []string {
		t.Helper()
		runner.SetWorkers(workers)
		defer runner.SetWorkers(0)
		outs, err := RunMany(names, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outs
	}

	par1a, par1b := run(1), run(1)
	par8a, par8b := run(8), run(8)

	for i, name := range names {
		if par1a[i] != par1b[i] {
			t.Errorf("%s: two -par 1 runs differ", name)
		}
		if par8a[i] != par8b[i] {
			t.Errorf("%s: two -par 8 runs differ", name)
		}
		if par1a[i] != par8a[i] {
			t.Errorf("%s: output differs between -par 1 and -par 8:\n--- par 1 (%d bytes) ---\n%.400s\n--- par 8 (%d bytes) ---\n%.400s",
				name, len(par1a[i]), par1a[i], len(par8a[i]), par8a[i])
		}
		if len(par1a[i]) == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

// TestRunManyMatchesRun checks the pooled dispatch returns exactly what
// per-name Run calls return, in name order.
func TestRunManyMatchesRun(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "tab1", "fig4"}
	runner.SetWorkers(4)
	outs, err := RunMany(names, o)
	runner.SetWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		want, err := Run(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != want {
			t.Errorf("RunMany[%d] (%s) differs from serial Run", i, name)
		}
	}
}

// TestRunManyUnknownName surfaces the failing experiment.
func TestRunManyUnknownName(t *testing.T) {
	_, err := RunMany([]string{"fig2", "nope"}, Quick())
	if err == nil {
		t.Fatal("unknown name should error")
	}
	if !strings.Contains(err.Error(), "nope:") {
		t.Fatalf("error should name the failing experiment, got %v", err)
	}
}
