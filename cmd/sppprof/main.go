// Command sppprof runs a parameterized workload on the simulated
// SPP-1000 and prints its CXpa-style profile and execution timeline —
// the observability tooling the paper credits for its optimization work
// (§6).
//
// Usage:
//
//	sppprof -threads 16 -phases 4 -imbalance 0.5 -remote
//	sppprof -threads 8 -width 120
//	sppprof -counters                 # append the PMU counter breakdown
//	sppprof -chrome trace.json        # Chrome trace-event export
//	sppprof -chrome - > trace.json    # ... to stdout (suppresses text)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"spp1000/internal/cxpa"
	"spp1000/internal/machine"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
	"spp1000/internal/trace"
)

func main() {
	nThreads := flag.Int("threads", 16, "team size (1-128)")
	phases := flag.Int("phases", 4, "barrier-bounded phases")
	imbalance := flag.Float64("imbalance", 0.5, "work skew: thread i carries (1 + i*imbalance/threads) units")
	remote := flag.Bool("remote", true, "walk a shared table hosted on hypernode 0")
	width := flag.Int("width", 96, "timeline width in characters")
	uniform := flag.Bool("uniform", false, "uniform thread placement instead of high locality")
	withCounters := flag.Bool("counters", false, "append the machine's PMU counter breakdown")
	chrome := flag.String("chrome", "", "write the timeline as Chrome trace-event JSON to this file (- for stdout); counters ride along in otherData")
	flag.Parse()

	hn := topology.HypernodesFor(*nThreads)
	if hn > topology.MaxHypernodes {
		log.Fatalf("sppprof: %d threads exceed the %d-CPU machine", *nThreads, topology.MaxHypernodes*topology.CPUsPerNode)
	}
	m, err := machine.New(machine.Config{Hypernodes: hn})
	if err != nil {
		log.Fatal(err)
	}
	m.Trace = trace.New()
	reg := m.EnableCounters()
	table := m.Alloc("table", topology.NearShared, 0, 0)

	place := threads.HighLocality
	if *uniform {
		place = threads.Uniform
	}
	bar := threads.NewBarrier(m, *nThreads, 0)
	_, ths, err := threads.RunTeamThreads(m, *nThreads, place, func(th *machine.Thread, tid int) {
		base := 20_000.0
		work := int64(base * (1 + float64(tid)*(*imbalance)/float64(*nThreads)))
		for phase := 0; phase < *phases; phase++ {
			th.ComputeCycles(work)
			if *remote {
				for i := 0; i < 32; i++ {
					th.Read(table, topology.Addr((tid*32+i)*topology.CacheLineBytes))
				}
			}
			bar.Wait(th)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	if *chrome != "" {
		// The machine's counters travel in otherData, so the exported
		// file is self-describing alongside the timeline.
		other := map[string]string{}
		for k, v := range reg.Snapshot().Flatten() {
			other[k] = strconv.FormatInt(v, 10)
		}
		data, err := m.Trace.ChromeTrace(other)
		if err != nil {
			log.Fatal(err)
		}
		if *chrome == "-" {
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		if err := os.WriteFile(*chrome, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace written to %s (load in chrome://tracing or Perfetto)\n", *chrome)
	}

	title := fmt.Sprintf("CXpa profile: %d threads (%v), %d phases, imbalance %.2f",
		*nThreads, place, *phases, *imbalance)
	fmt.Print(cxpa.Render(title, m, cxpa.Snapshot(ths)))
	fmt.Println()
	fmt.Print(m.Trace.Render("Execution timeline", *width))
	if *withCounters {
		fmt.Println()
		fmt.Print(reg.Snapshot().Render("PMU counters"))
	}
}
