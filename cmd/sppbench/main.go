// Command sppbench regenerates the tables and figures of the paper's
// evaluation on the simulated SPP-1000.
//
// Usage:
//
//	sppbench -exp all            # every experiment, paper scale
//	sppbench -exp fig3           # one experiment
//	sppbench -exp fig6,tab2      # a subset
//	sppbench -quick              # reduced problem sizes (CI-friendly)
//	sppbench -par 1              # serial (default: all host cores)
//	sppbench -simpar 4           # at most 4 partitioned-engine workers (1 = serial)
//	sppbench -exp all -counters  # append per-component PMU counter tables
//	sppbench -exp all -checkpoint run.ckpt
//	                             # checkpoint after every experiment
//	sppbench -resume run.ckpt    # resume a killed run from its checkpoint
//
// Every sweep point is an independent deterministic simulation, so the
// experiments fan out across host cores through internal/runner; the
// output is byte-identical for any -par value. -simpar independently
// sets the most goroutines that execute the hypernode partitions
// *inside* one simulation on the PDES engine (internal/parsim), which
// hands a window to them only when windows carry enough events to pay
// for the handoff; output is
// byte-identical for any -simpar value too. A checkpointed run killed
// at any boundary and resumed prints byte-identical output as well —
// the resume-exactness guarantee that TestCheckpointKillAtEveryBoundary
// in internal/experiments enforces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"spp1000/internal/counters"
	"spp1000/internal/experiments"
	"spp1000/internal/parsim"
	"spp1000/internal/runner"
	"spp1000/internal/snapshot"
)

func main() {
	exp := flag.String("exp", "all", "experiment id(s): all, or comma-separated from "+strings.Join(append(append([]string{}, experiments.Names...), experiments.Extra...), ","))
	quick := flag.Bool("quick", false, "reduced problem sizes")
	jsonOut := flag.Bool("json", false, "emit the paper artifacts as structured JSON instead of text")
	par := flag.Int("par", 0, "host workers for independent simulations (0 = all cores, 1 = serial)")
	simpar := flag.Int("simpar", 0, "most host workers for hypernode partitions inside one PDES simulation (0 or 1 = serial)")
	withCounters := flag.Bool("counters", false, "append a per-component PMU counter breakdown to every experiment")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: save resumable progress at experiment boundaries")
	resume := flag.String("resume", "", "resume from this checkpoint file (keeps checkpointing to it unless -checkpoint names another)")
	flag.Parse()

	if *par < 0 {
		fmt.Fprintf(os.Stderr, "sppbench: -par must be >= 0 (0 = all cores, 1 = serial), got %d\n", *par)
		os.Exit(2)
	}
	runner.SetWorkers(*par)
	if *simpar < 0 {
		fmt.Fprintf(os.Stderr, "sppbench: -simpar must be >= 0 (0 or 1 = serial), got %d\n", *simpar)
		os.Exit(2)
	}
	parsim.SetWorkers(*simpar)

	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}

	if *jsonOut {
		// -json always builds the whole report; refuse flags it would
		// otherwise silently ignore.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "counters", "checkpoint", "resume":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "sppbench: -json cannot combine with %s (the JSON report always covers every paper artifact, without counters or checkpoints)\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
		report, err := experiments.BuildReport(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sppbench: %v\n", err)
			os.Exit(1)
		}
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sppbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}

	// Validate before running anything: an unknown or empty id must be
	// a loud nonzero exit, not a partial (or empty) report.
	names, err := experiments.ResolveNames(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sppbench: %v\n", err)
		os.Exit(2)
	}
	if *checkpoint != "" || *resume != "" {
		if *withCounters {
			fmt.Fprintln(os.Stderr, "sppbench: -counters cannot combine with -checkpoint/-resume (a resumed run cannot print counters for the experiments it skips)")
			os.Exit(2)
		}
		path := *checkpoint
		if path == "" {
			path = *resume
		}
		var prior *snapshot.Checkpoint
		if *resume != "" {
			switch c, rerr := snapshot.ReadFile(*resume); {
			case rerr == nil:
				prior = c
			case errors.Is(rerr, os.ErrNotExist):
				// Nothing to resume yet: a fresh run that checkpoints here.
			case errors.Is(rerr, snapshot.ErrCorrupt):
				fmt.Fprintf(os.Stderr, "sppbench: %s was corrupt and has been deleted; starting fresh\n", *resume)
			default:
				fmt.Fprintf(os.Stderr, "sppbench: %v\n", rerr)
				os.Exit(1)
			}
		}
		outs, _, err := experiments.RunCheckpointed(context.Background(), names, opts, prior,
			func(c *snapshot.Checkpoint) error { return snapshot.WriteFile(path, c) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "sppbench: %v (completed progress is checkpointed in %s)\n", err, path)
			os.Exit(1)
		}
		for i, name := range names {
			fmt.Printf("=== %s ===\n%s\n", name, outs[i])
		}
		return
	}
	if *withCounters {
		// Attribute counters per experiment: run the experiments one at
		// a time, each with its own collector sink. Every machine built
		// while the sink is attached enables its counters and publishes
		// when its run completes; the merge is commutative, so the table
		// is byte-identical for any -par (sweep points inside each
		// experiment still fan out across the pool).
		for _, name := range names {
			col := counters.NewCollector()
			counters.Attach(col)
			out, err := experiments.Run(name, opts)
			counters.Detach(col)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sppbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("=== %s ===\n%s\n", name, out)
			fmt.Print(col.Snapshot().Render(fmt.Sprintf("PMU counters: %s", name)))
			fmt.Println()
		}
		return
	}
	outs, err := experiments.RunMany(names, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sppbench: %v\n", err)
		os.Exit(1)
	}
	for i, name := range names {
		fmt.Printf("=== %s ===\n%s\n", name, outs[i])
	}
}
