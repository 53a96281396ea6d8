// Package spp1000 hosts the repository-level benchmarks: one testing.B
// benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the complete artifact on the simulated machine;
// reported custom metrics are simulated-machine quantities (virtual
// seconds, simulated Mflop/s), not host-machine throughput.
package spp1000

import (
	"runtime"
	"testing"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
	"spp1000/internal/counters"
	"spp1000/internal/experiments"
	"spp1000/internal/load"
	"spp1000/internal/microbench"
	"spp1000/internal/sim"
)

// reportEventRate attaches the events/sec-per-core metric: simulation
// events executed during the benchmark per wall-clock second, divided
// by the host cores available (runtime.GOMAXPROCS) — the engine
// throughput number ROADMAP asks to track, comparable across hosts.
func reportEventRate(b *testing.B, events int64) {
	if sec := b.Elapsed().Seconds(); sec > 0 && events > 0 {
		b.ReportMetric(float64(events)/sec/float64(runtime.GOMAXPROCS(0)), "events/sec-per-core")
	}
}

func opts(b *testing.B) experiments.Options {
	if testing.Short() {
		return experiments.Quick()
	}
	o := experiments.Defaults()
	// Benchmarks iterate; keep single-iteration cost moderate while
	// staying at paper problem sizes (except the 2M-particle N-body
	// count, which is exercised once in TestPaperScaleFig8 / sppbench).
	o.NBodySizes = []int{32768, 262144}
	return o
}

// BenchmarkFig2ForkJoin regenerates Figure 2.
func BenchmarkFig2ForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(opts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Barrier regenerates Figure 3.
func BenchmarkFig3Barrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(opts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Message regenerates Figure 4.
func BenchmarkFig4Message(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(opts(b)); err != nil {
			b.Fatal(err)
		}
	}
	rt, err := microbench.MessageRoundTrip(1024, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rt.Micros(), "sim-us/global-RT")
}

// BenchmarkColdJob is the compute step of a cold sppd job: fig2, fig3
// and fig4 at quick size with a counter collector attached, as the
// service runs them. Run with -benchmem: machine set-up and counter
// attachment, not simulated events, are most of its allocation.
func BenchmarkColdJob(b *testing.B) {
	col := counters.NewCollector()
	counters.Attach(col)
	defer counters.Detach(col)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMany([]string{"fig2", "fig3", "fig4"}, experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab1C90PIC regenerates Table 1.
func BenchmarkTab1C90PIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab1(opts(b)); err != nil {
			b.Fatal(err)
		}
	}
	sec, rate := pic.C90Reference(pic.Small, 500)
	b.ReportMetric(rate, "sim-C90-Mflops")
	b.ReportMetric(sec, "sim-C90-seconds")
}

// BenchmarkFig6PIC regenerates Figure 6.
func BenchmarkFig6PIC(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig6", o); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	r, err := pic.RunShared(pic.Small, 16, o.PICSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-16cpu")
}

// BenchmarkFig7FEM regenerates Figure 7.
func BenchmarkFig7FEM(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig7", o); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	r, err := fem.Run(fem.SmallGrid, fem.GatherScatter, 16, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.UsefulMflops, "sim-useful-Mflops-16cpu")
}

// BenchmarkFig6PIC128 times the paper's largest PIC configuration — the
// full 128-CPU machine the authors did not have — on the monolithic
// serial engine: the single-kernel wall-clock floor the partitioned
// engine is measured against.
func BenchmarkFig6PIC128(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	var r pic.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = pic.RunShared(pic.Small, 128, o.PICSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	b.ReportMetric(r.Mflops, "sim-Mflops-128cpu")
}

// BenchmarkFig6PIC128PDES1 is BenchmarkFig6PIC128 on the
// hypernode-partitioned engine, whose windows run inline.
func BenchmarkFig6PIC128PDES1(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	var r pic.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = pic.RunSharedPar(pic.Small, 128, o.PICSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	b.ReportMetric(r.Mflops, "sim-Mflops-128cpu")
}

// BenchmarkFig7FEM128 times the FEM large grid on the full 128-CPU
// machine on the monolithic serial engine (see BenchmarkFig6PIC128).
func BenchmarkFig7FEM128(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	var r fem.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = fem.Run(fem.LargeGrid, fem.GatherScatter, 128, o.AppSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	b.ReportMetric(r.UsefulMflops, "sim-useful-Mflops-128cpu")
}

// BenchmarkFig7FEM128PDES1 is BenchmarkFig7FEM128 on the
// hypernode-partitioned engine, whose windows run inline.
func BenchmarkFig7FEM128PDES1(b *testing.B) {
	o := opts(b)
	ev0 := sim.TotalEvents()
	var r fem.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = fem.RunPar(fem.LargeGrid, fem.GatherScatter, 128, o.AppSteps)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, sim.TotalEvents()-ev0)
	b.ReportMetric(r.UsefulMflops, "sim-useful-Mflops-128cpu")
}

// BenchmarkFig8NBody regenerates Figure 8 (32K and 256K particles; run
// cmd/sppbench for the full 2M-particle sweep).
func BenchmarkFig8NBody(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig8", o); err != nil {
			b.Fatal(err)
		}
	}
	w := nbody.CountWorkload(32768, o.NBodySample, o.Seed)
	r, err := nbody.Run(w, 16, 2, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-16cpu")
}

// BenchmarkCountWorkload is Fig. 8's host-side stage alone at 256K
// particles: Plummer sphere, Morton sort, octree build, and the sampled
// force traversals. Run with -benchmem: the tree build's allocation is
// the bulk of a paper-scale suite's heap.
func BenchmarkCountWorkload(b *testing.B) {
	var w *nbody.Workload
	for i := 0; i < b.N; i++ {
		w = nbody.CountWorkload(262144, 96, 1)
	}
	b.ReportMetric(float64(w.TreeNodes), "sim-tree-nodes")
}

// BenchmarkAblations runs the design-choice ablation suite (extension).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablate(opts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMR runs the adaptive-mesh-refinement extension.
func BenchmarkAMR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("amr", opts(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab2PPM regenerates Table 2.
func BenchmarkTab2PPM(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab2(o); err != nil {
			b.Fatal(err)
		}
	}
	r, err := ppm.Run(ppm.Table2A, 8, o.AppSteps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mflops, "sim-Mflops-8cpu")
}

// BenchmarkLoadMix measures the sppload op generator: the per-op cost
// of the smooth-WRR class schedule plus the zipfian hot-key draw. The
// generator sits on every load-test worker's critical path, so it must
// stay allocation-free per op — allocs/op here is gated by benchtrend
// like any other benchmark.
func BenchmarkLoadMix(b *testing.B) {
	gen, err := load.NewGenerator(load.DefaultMix(), 8, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hot := 0
	for i := 0; i < b.N; i++ {
		if gen.Next().Class == load.OpHot {
			hot++
		}
	}
	if b.N >= 100 && (hot < b.N/4 || hot > b.N/2+1) {
		b.Fatalf("hot fraction %d/%d drifted from the 40%% mix", hot, b.N)
	}
}
