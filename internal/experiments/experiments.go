// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5) on the simulated machine, rendering them as the
// text rows/series the paper reports. It is shared by cmd/sppbench and
// the repository-level benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"spp1000/internal/ablation"
	"spp1000/internal/apps/amr"
	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
	"spp1000/internal/directives"
	"spp1000/internal/microbench"
	"spp1000/internal/runner"
	"spp1000/internal/stats"
)

// Options scales the experiments. The json tags are the sppd wire
// names; adding a field requires extending Spec.Canonical (enforced by
// TestCanonicalCoversOptions).
type Options struct {
	// PICSteps is the simulated-timestep count for Fig. 6 runs; results
	// are reported scaled to the paper's 500 steps (per-step work is
	// uniform). Default 25.
	PICSteps int `json:"picSteps"`
	// NBodySizes are the Fig. 8 problem sizes. Default the paper's
	// 32K / 256K / 2M.
	NBodySizes []int `json:"nBodySizes"`
	// NBodySample is the per-block traversal sample for counting.
	NBodySample int `json:"nBodySample"`
	// AppSteps is the step count for FEM / N-body / PPM timing runs.
	AppSteps int    `json:"appSteps"`
	Seed     uint64 `json:"seed"`
}

// Defaults returns the paper-scale options.
func Defaults() Options {
	return Options{
		PICSteps:    25,
		NBodySizes:  []int{32768, 262144, 2097152},
		NBodySample: 96,
		AppSteps:    4,
		Seed:        1,
	}
}

// Quick returns reduced-scale options for tests and -short runs.
func Quick() Options {
	return Options{
		PICSteps:    4,
		NBodySizes:  []int{32768, 131072},
		NBodySample: 48,
		AppSteps:    2,
		Seed:        1,
	}
}

// Fig2 reproduces Figure 2: fork-join cost versus thread count.
func Fig2(o Options) (string, error) {
	hl, un, err := microbench.ForkJoinSweep(2, 16)
	if err != nil {
		return "", err
	}
	return stats.Render("Figure 2: Cost of Fork-Join (2 hypernodes)", "threads", "microseconds", hl, un), nil
}

// Fig3 reproduces Figure 3: barrier synchronization cost.
func Fig3(o Options) (string, error) {
	series, err := microbench.BarrierSweep(2, 16)
	if err != nil {
		return "", err
	}
	return stats.Render("Figure 3: Cost of Barrier Synchronization", "threads", "microseconds", series...), nil
}

// Fig4 reproduces Figure 4: PVM round-trip time versus message size.
func Fig4(o Options) (string, error) {
	local, global, err := microbench.MessageSweep()
	if err != nil {
		return "", err
	}
	out := stats.Render("Figure 4: Cost of Round Trip Message Passing", "bytes", "microseconds", local, global)
	l, _ := local.YAt(1024)
	g, _ := global.YAt(1024)
	out += fmt.Sprintf("global/local ratio below 8 KB: %.2f (paper: 2.3)\n", g/l)
	return out, nil
}

// Tab1 reproduces Table 1: PIC performance on one C90 processor.
func Tab1(o Options) (string, error) {
	tb := stats.NewTable("Table 1: Performance on 1 C90 processor",
		"Mesh", "No. of particles", "Mflop/s", "Total CPU Time (s)")
	for _, size := range []pic.Size{pic.Small, pic.Large} {
		sec, rate := pic.C90Reference(size, 500)
		tb.AddRow(size.String(), size.Particles(), rate, sec)
	}
	return tb.Render(), nil
}

// Figure 6's sweep: both PIC sizes at each processor count.
var (
	fig6Sizes = []pic.Size{pic.Small, pic.Large}
	fig6Procs = []int{1, 2, 4, 8, 12, 16}
)

// fig6Sweep runs Figure 6's simulations through the worker pool. For
// each size and processor count, in sweep order, it returns the
// shared-memory result followed by the PVM result.
func fig6Sweep(ctx context.Context, o Options) ([]pic.Result, error) {
	n := len(fig6Procs)
	return runner.MapCtx(ctx, 2*len(fig6Sizes)*n, func(i int) (pic.Result, error) {
		size, p := fig6Sizes[i/(2*n)], fig6Procs[i/2%n]
		if i%2 == 0 {
			return pic.RunShared(size, p, o.PICSteps)
		}
		return pic.RunPVM(size, p, o.PICSteps)
	})
}

// fig6 reproduces Figure 6: PIC time to solution and speedup, shared
// memory versus PVM, with the C90 reference line.
func fig6(ctx context.Context, o Options) (string, error) {
	res, err := fig6Sweep(ctx, o)
	if err != nil {
		return "", err
	}
	return renderFig6(o, res), nil
}

// renderFig6 renders fig6Sweep's results.
func renderFig6(o Options, res []pic.Result) string {
	var b strings.Builder
	for si, size := range fig6Sizes {
		shT := &stats.Series{Name: "shared time(s)"}
		pvT := &stats.Series{Name: "pvm time(s)"}
		shS := &stats.Series{Name: "shared speedup"}
		pvS := &stats.Series{Name: "pvm speedup"}
		var shBase, pvBase float64
		scale := 500.0 / float64(o.PICSteps)
		for pi, p := range fig6Procs {
			rs, rp := res[2*(si*len(fig6Procs)+pi)], res[2*(si*len(fig6Procs)+pi)+1]
			if p == 1 {
				shBase, pvBase = rs.Seconds, rp.Seconds
			}
			shT.Add(float64(p), rs.Seconds*scale)
			pvT.Add(float64(p), rp.Seconds*scale)
			shS.Add(float64(p), shBase/rs.Seconds)
			pvS.Add(float64(p), pvBase/rp.Seconds)
		}
		c90sec, c90rate := pic.C90Reference(size, 500)
		fmt.Fprintf(&b, "%s", stats.Render(
			fmt.Sprintf("Figure 6: PIC %v, %d particles (times scaled to 500 steps)",
				size, size.Particles()),
			"procs", "see columns", shT, pvT, shS, pvS))
		fmt.Fprintf(&b, "C90 reference line: %.1f s at %.0f Mflop/s\n\n", c90sec, c90rate)
	}
	return b.String()
}

// Figure 7's sweep: three curves over one processor axis.
var (
	fig7Curves = []struct {
		name   string
		grid   [2]int
		coding fem.Coding
	}{
		{"small1", fem.SmallGrid, fem.GatherScatter},
		{"small2", fem.SmallGrid, fem.VectorStyle},
		{"large", fem.LargeGrid, fem.GatherScatter},
	}
	fig7Procs = []int{1, 2, 4, 8, 9, 10, 12, 14, 16}
)

// fig7Sweep runs Figure 7's simulations through the worker pool and
// returns them curve by curve, each curve in processor order.
func fig7Sweep(ctx context.Context, o Options) ([]fem.Result, error) {
	n := len(fig7Procs)
	return runner.MapCtx(ctx, len(fig7Curves)*n, func(i int) (fem.Result, error) {
		c := fig7Curves[i/n]
		return fem.Run(c.grid, c.coding, fig7Procs[i%n], o.AppSteps)
	})
}

// fig7 reproduces Figure 7: FEM performance on the small and large
// datasets, both codings, with the C90 line.
func fig7(ctx context.Context, o Options) (string, error) {
	res, err := fig7Sweep(ctx, o)
	if err != nil {
		return "", err
	}
	return renderFig7(res), nil
}

// renderFig7 renders fig7Sweep's results.
func renderFig7(res []fem.Result) string {
	curves := make([]*stats.Series, len(fig7Curves))
	for ci, c := range fig7Curves {
		curves[ci] = &stats.Series{Name: c.name}
		for pi, p := range fig7Procs {
			curves[ci].Add(float64(p), res[ci*len(fig7Procs)+pi].UsefulMflops)
		}
	}
	out := stats.Render("Figure 7: FEM performance (useful Mflop/s)", "procs", "useful Mflop/s", curves...)
	_, c90useful := fem.C90Reference()
	out += fmt.Sprintf("C90 single-head line: %.0f useful Mflop/s\n", c90useful)
	return out
}

// nbodyConfig is one N-body team shape: threads and hypernodes.
type nbodyConfig struct{ p, hn int }

// fig8Cfgs are Figure 8's team shapes; the first doubles as the 1-CPU
// baseline.
var fig8Cfgs = []nbodyConfig{
	{1, 1}, {2, 1}, {4, 1}, {8, 1}, {2, 2}, {4, 2}, {8, 2}, {16, 2},
}

// fig8Sweep runs Figure 8's simulations. Stage 1 builds the counted workload of every size (host-side tree
// builds — by far the heaviest host compute in the suite) in parallel
// across sizes. Stage 2 times every (size, config) pair, flattened into
// one pool dispatch. Results are size-major: size i's runs start at
// i*len(fig8Cfgs).
func fig8Sweep(ctx context.Context, o Options) ([]nbody.Result, error) {
	cfgs := fig8Cfgs
	ws, err := runner.MapCtx(ctx, len(o.NBodySizes), func(i int) (*nbody.Workload, error) {
		return nbody.CountWorkload(o.NBodySizes[i], o.NBodySample, o.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	return runner.MapCtx(ctx, len(ws)*len(cfgs), func(i int) (nbody.Result, error) {
		return nbody.Run(ws[i/len(cfgs)], cfgs[i%len(cfgs)].p, cfgs[i%len(cfgs)].hn, o.AppSteps)
	})
}

// fig8 reproduces Figure 8: N-body speedup for three problem sizes on
// one and two hypernodes.
func fig8(ctx context.Context, o Options) (string, error) {
	res, err := fig8Sweep(ctx, o)
	if err != nil {
		return "", err
	}
	return renderFig8(o, res), nil
}

// renderFig8 renders fig8Sweep's results.
func renderFig8(o Options, res []nbody.Result) string {
	cfgs := fig8Cfgs
	var b strings.Builder
	for si, n := range o.NBodySizes {
		one := &stats.Series{Name: "1 hypernode"}
		two := &stats.Series{Name: "2 hypernodes"}
		rate := &stats.Series{Name: "Mflop/s (2 hn)"}
		r1 := res[si*len(cfgs)]
		for ci, cfg := range cfgs {
			r := res[si*len(cfgs)+ci]
			if cfg.hn == 1 {
				one.Add(float64(cfg.p), r1.Seconds/r.Seconds)
			} else {
				two.Add(float64(cfg.p), r1.Seconds/r.Seconds)
				rate.Add(float64(cfg.p), r.Mflops)
			}
		}
		fmt.Fprintf(&b, "%s", stats.Render(
			fmt.Sprintf("Figure 8: N-body speedup, %d particles (1-CPU rate %.1f Mflop/s)", n, r1.Mflops),
			"procs", "speedup", one, two, rate))
		b.WriteString("\n")
	}
	b.WriteString("Paper: 27.5 Mflop/s on 1 CPU, 384 Mflop/s on 16; 2-7% cross-hypernode degradation.\n")
	return b.String()
}

// Tab2 reproduces Table 2: PPM performance.
func Tab2(o Options) (string, error) {
	res, err := ppm.Table2(o.AppSteps)
	if err != nil {
		return "", err
	}
	paper := []float64{29.9, 58.2, 118.8, 228.5, 23.8, 47.8, 95.9, 186.2, 29.9, 118.5}
	tb := stats.NewTable("Table 2: PPM Performance",
		"Grid Size", "No. of Tiles", "No. of Procs", "Mflop/s", "Paper Mflop/s")
	for i, r := range res {
		tb.AddRow(
			fmt.Sprintf("%dx%d", r.Config.W, r.Config.H),
			fmt.Sprintf("%dx%d", r.Config.TX, r.Config.TY),
			r.Procs, r.Mflops, paper[i])
	}
	return tb.Render(), nil
}

// Ablate runs the design-choice ablation suite (hardware vs. software
// synchronization, the SCI global buffer, ring count, dynamic
// scheduling) — the studies DESIGN.md calls out beyond the paper's own
// artifacts.
func Ablate(o Options) (string, error) {
	out, err := ablation.Report()
	if err != nil {
		return "", err
	}
	// Message contention (§4.3's "compounding factor"): flat on the
	// architected four rings, visible on a hypothetical single ring.
	four, one, err := microbench.ContentionSweep(16384)
	if err != nil {
		return "", err
	}
	out += "\n" + stats.Render("Contention: concurrent cross-hypernode message pairs (mean RT)",
		"pairs", "µs", four, one)
	return out, nil
}

// Scale runs the paper's future-work extrapolation to 16 hypernodes.
func Scale(o Options) (string, error) { return ablation.ScaleReport() }

// amrReport runs the adaptive-mesh-refinement extension: the PPM shock
// problem on a PARAMESH-style quadtree of blocks, timed on the
// simulated machine against the equivalent uniform fine grid.

func amrReport(ctx context.Context, o Options) (string, error) {
	var b strings.Builder
	b.WriteString("AMR extension: PPM shock on a PARAMESH-style block quadtree\n")
	tb := stats.NewTable("", "procs", "sim seconds", "Mflop/s", "leaves", "max level", "zones saved")
	ps := []int{1, 4, 8, 16}
	res, err := runner.MapCtx(ctx, len(ps), func(i int) (amr.Result, error) {
		d, err := amr.New(4, 1)
		if err != nil {
			return amr.Result{}, err
		}
		w := float64(4 * amr.BlockSize)
		d.SetRegion(func(x, y float64) (rho, u, v, pr float64) {
			if x > w/4 && x < 3*w/4 {
				return 1.0, 0, 0, 1.0
			}
			return 0.125, 0, 0, 0.1
		})
		return amr.Run(d, ps[i], 10)
	})
	if err != nil {
		return "", err
	}
	for i, p := range ps {
		r := res[i]
		tb.AddRow(p, r.Seconds, r.Mflops, r.LeafBlocks, r.MaxLevel,
			fmt.Sprintf("%.1fx", float64(r.UniformZones)/float64(r.ZoneUpdates)))
	}
	b.WriteString(tb.Render())
	b.WriteString("(the refinement tracks the shocks; the serial regrid bounds the speedup)\n")
	return b.String(), nil
}

// Classes characterizes the five §3.2 virtual-memory classes and the
// §3.2 false-sharing effect.
func Classes(o Options) (string, error) {
	tb, err := microbench.ClassLadder()
	if err != nil {
		return "", err
	}
	out := tb.Render()
	shared, private, err := directives.FalseSharing(200)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("\nFalse sharing (§3.2): 8 threads × 200 accumulations\n"+
		"  adjacent shared scalars: %v\n  thread-private scalars:  %v (%.1fx faster)\n",
		shared, private, float64(shared)/float64(private))
	return out, nil
}

// Names lists the paper artifacts in order; Extra lists the extension
// studies.
var (
	Names = []string{"fig2", "fig3", "fig4", "tab1", "fig6", "fig7", "fig8", "tab2"}
	Extra = []string{"ablate", "scale", "classes", "amr", "counters", "scalepar"}
)

// Known reports whether name is a runnable experiment id.
func Known(name string) bool {
	for _, n := range Names {
		if n == name {
			return true
		}
	}
	for _, n := range Extra {
		if n == name {
			return true
		}
	}
	return false
}

// ResolveNames expands an -exp style expression — "all", "extra",
// "everything", or a comma-separated list of ids — into a validated,
// whitespace-trimmed name list. Unknown or empty ids are an error that
// names the offender and the valid vocabulary, so callers (sppbench,
// sppd) fail loudly instead of running nothing.
func ResolveNames(expr string) ([]string, error) {
	switch strings.TrimSpace(expr) {
	case "all":
		return append([]string{}, Names...), nil
	case "extra":
		return append([]string{}, Extra...), nil
	case "everything":
		return append(append([]string{}, Names...), Extra...), nil
	}
	var names []string
	for _, raw := range strings.Split(expr, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("empty experiment name in %q (expected all, extra, everything, or ids from %v and %v)", expr, Names, Extra)
		}
		if !Known(name) {
			return nil, fmt.Errorf("unknown experiment %q (expected all, extra, everything, or ids from %v and %v)", name, Names, Extra)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiments selected by %q", expr)
	}
	return names, nil
}

// RunMany executes the named experiments through the host worker pool
// and returns the rendered outputs in name order. The rendering of each
// experiment — and of the whole sequence — is byte-identical to calling
// Run serially: workers fill their own slots and assembly is ordered.
func RunMany(names []string, o Options) ([]string, error) {
	return RunManyCtx(context.Background(), names, o)
}

// RunManyCtx is RunMany with cancellation: a done ctx stops both the
// experiment-level dispatch and the sweep-point dispatch inside each
// experiment that fans out (fig6/fig7/fig8/amr). In-flight simulations
// run to completion; everything still queued is skipped.
func RunManyCtx(ctx context.Context, names []string, o Options) ([]string, error) {
	return runner.MapCtx(ctx, len(names), func(i int) (string, error) {
		out, err := RunCtx(ctx, names[i], o)
		if err != nil {
			return "", fmt.Errorf("%s: %w", names[i], err)
		}
		return out, nil
	})
}

// Run executes one experiment by name.
func Run(name string, o Options) (string, error) {
	return RunCtx(context.Background(), name, o)
}

// RunCtx executes one experiment by name under ctx. Experiments that
// fan sweep points onto the worker pool stop dispatching new points once
// ctx is done; the single-simulation experiments check ctx only on
// entry (each is one indivisible deterministic run).
func RunCtx(ctx context.Context, name string, o Options) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	switch name {
	case "fig2":
		return Fig2(o)
	case "fig3":
		return Fig3(o)
	case "fig4":
		return Fig4(o)
	case "tab1":
		return Tab1(o)
	case "fig6":
		return fig6(ctx, o)
	case "fig7":
		return fig7(ctx, o)
	case "fig8":
		return fig8(ctx, o)
	case "tab2":
		return Tab2(o)
	case "ablate":
		return Ablate(o)
	case "scale":
		return Scale(o)
	case "classes":
		return Classes(o)
	case "amr":
		return amrReport(ctx, o)
	case "counters":
		return CountersReport(o)
	case "scalepar":
		return ScalePar(ctx, o)
	}
	return "", fmt.Errorf("unknown experiment %q (have %v and %v)", name, Names, Extra)
}
