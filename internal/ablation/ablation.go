// Package ablation quantifies the SPP-1000 design choices the paper
// argues for qualitatively, by switching them off in the simulator:
//
//   - hardware barrier support vs. a software (message-based) barrier
//     (§7: "hardware support for critical mechanisms yielded excellent
//     operation compared to software alternatives");
//   - the SCI global cache buffer (§2.5) vs. fetching every remote
//     access over the rings;
//   - four parallel rings (§2.5) vs. a single ring;
//   - static partitioning vs. dynamic self-scheduling (§7 future work).
//
// It also runs the paper's own future-work item "running on larger
// configuration platforms": the microbenchmarks and the tree code on up
// to the full 16-hypernode, 128-processor machine.
package ablation

import (
	"fmt"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/machine"
	"spp1000/internal/pvm"
	"spp1000/internal/runner"
	"spp1000/internal/sim"
	"spp1000/internal/stats"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// BarrierComparison measures one barrier episode of n threads, first
// with the CPSlib hardware-supported primitive, then with a software
// barrier built from PVM messages through a central coordinator.
type BarrierComparison struct {
	N        int
	Hardware sim.Cycles // last-in to last-out
	Software sim.Cycles
}

// CompareBarrier runs both barriers at the given team size on two
// hypernodes.
func CompareBarrier(n int) (BarrierComparison, error) {
	out := BarrierComparison{N: n}

	// Hardware: the §4.2 semaphore + cached-spin barrier.
	{
		m, err := machine.New(machine.Config{Hypernodes: 2})
		if err != nil {
			return out, err
		}
		b := threads.NewBarrier(m, n, 0)
		_, err = threads.RunTeam(m, n, threads.HighLocality, func(th *machine.Thread, tid int) {
			b.Wait(th)
			th.Delay(sim.Cycles((n - 1 - tid) * 700))
			b.Wait(th)
		})
		if err != nil {
			return out, err
		}
		_, lilo := b.LastEpisode()
		out.Hardware = lilo
	}

	// Software: every thread sends an arrival message to thread 0 and
	// waits for the release message — the portable alternative on a
	// machine without hardware synchronization support.
	{
		m, err := machine.New(machine.Config{Hypernodes: 2})
		if err != nil {
			return out, err
		}
		sys := pvm.NewSystem(m)
		tasks := make([]*pvm.Task, n)
		reg := m.K.NewSemaphore("reg", 0)
		ready := m.K.NewEvent("ready")
		var lastIn, lastOut sim.Cycles
		softBarrier := func(th *machine.Thread, tid int) {
			if th.Now() > lastIn {
				lastIn = th.Now()
			}
			if tid == 0 {
				for i := 1; i < n; i++ {
					tasks[0].Recv()
				}
				for i := 1; i < n; i++ {
					tasks[0].Send(i, 2, 16)
				}
			} else {
				tasks[tid].Send(0, 1, 16)
				tasks[tid].Recv()
			}
			if th.Now() > lastOut {
				lastOut = th.Now()
			}
		}
		_, err = threads.RunTeam(m, n, threads.HighLocality, func(th *machine.Thread, tid int) {
			tasks[tid] = sys.AddTask(th)
			reg.V()
			if tid == 0 {
				for i := 0; i < n; i++ {
					reg.P(th.P)
				}
				ready.Set()
			} else {
				ready.Wait(th.P)
			}
			softBarrier(th, tid) // warm
			th.Delay(sim.Cycles((n - 1 - tid) * 700))
			lastIn, lastOut = 0, 0
			softBarrier(th, tid) // measured
		})
		if err != nil {
			return out, err
		}
		out.Software = lastOut - lastIn
	}
	return out, nil
}

// BufferComparison measures the cost of m repeated reads of a remote
// line set from one CPU, with and without the SCI global cache buffer.
type BufferComparison struct {
	Reads         int
	WithBuffer    sim.Cycles
	WithoutBuffer sim.Cycles
}

// CompareGlobalBuffer reads the same 64 remote lines eight times over
// (with a cache too small to hold them, so every read reaches the
// memory system).
func CompareGlobalBuffer() (BufferComparison, error) {
	run := func(disable bool) (sim.Cycles, error) {
		m, err := machine.New(machine.Config{Hypernodes: 2, CacheLines: 16})
		if err != nil {
			return 0, err
		}
		m.Mem.DisableGlobalBuffer = disable
		remote := m.Alloc("remote", topology.NearShared, 1, 0)
		var total sim.Cycles
		m.Spawn("reader", topology.MakeCPU(0, 0, 0), func(th *machine.Thread) {
			start := th.Now()
			for pass := 0; pass < 8; pass++ {
				for line := 0; line < 64; line++ {
					th.Read(remote, topology.Addr(line*topology.CacheLineBytes))
				}
			}
			total = th.Now() - start
		})
		if err := m.Run(); err != nil {
			return 0, err
		}
		return total, nil
	}
	var out BufferComparison
	out.Reads = 8 * 64
	var err error
	if out.WithBuffer, err = run(false); err != nil {
		return out, err
	}
	if out.WithoutBuffer, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}

// RingComparison measures concurrent remote streaming from all four
// functional units of hypernode 0, with four rings vs. one.
type RingComparison struct {
	FourRings sim.Cycles
	OneRing   sim.Cycles
}

// CompareRings streams 128 distinct remote lines from each of four CPUs
// (one per FU, so with four rings each has a private ring).
func CompareRings() (RingComparison, error) {
	run := func(single bool) (sim.Cycles, error) {
		m, err := machine.New(machine.Config{Hypernodes: 2, CacheLines: 16})
		if err != nil {
			return 0, err
		}
		m.Mem.SingleRing = single
		remote := m.Alloc("remote", topology.NearShared, 1, 0)
		var last sim.Cycles
		done := m.K.NewSemaphore("done", 0)
		for fu := 0; fu < topology.FUsPerNode; fu++ {
			fu := fu
			m.Spawn("streamer", topology.MakeCPU(0, fu, 0), func(th *machine.Thread) {
				for i := 0; i < 128; i++ {
					// Addresses homed on this FU's counterpart so each
					// stream uses its own ring in the 4-ring case.
					addr := topology.Addr((i*topology.FUsPerNode + fu) * topology.CacheLineBytes)
					th.Read(remote, addr)
				}
				if th.Now() > last {
					last = th.Now()
				}
				done.V()
			})
		}
		m.Spawn("join", topology.MakeCPU(0, 0, 1), func(th *machine.Thread) {
			for i := 0; i < topology.FUsPerNode; i++ {
				done.P(th.P)
			}
		})
		if err := m.Run(); err != nil {
			return 0, err
		}
		return last, nil
	}
	var out RingComparison
	var err error
	if out.FourRings, err = run(false); err != nil {
		return out, err
	}
	if out.OneRing, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}

// ScheduleComparison compares static partitioning with dynamic
// self-scheduling of the tree code at a given scale.
type ScheduleComparison struct {
	N         int
	Procs     int
	Imbalance float64
	Static    float64 // Mflop/s
	Dynamic   float64
}

// CompareScheduling runs both schedulers on a counted workload.
func CompareScheduling(w *nbody.Workload, procs, hypernodes int) (ScheduleComparison, error) {
	out := ScheduleComparison{N: w.N, Procs: procs}
	var err error
	if out.Imbalance, err = w.ImbalanceRatio(procs); err != nil {
		return out, err
	}
	s, err := nbody.Run(w, procs, hypernodes, 2)
	if err != nil {
		return out, err
	}
	d, err := nbody.RunDynamic(w, procs, hypernodes, 2)
	if err != nil {
		return out, err
	}
	out.Static = s.Mflops
	out.Dynamic = d.Mflops
	return out, nil
}

// PowerOfTwoComparison measures the §6 observation: "Most of the test
// codes required 16 processors and could not easily be recast to run on
// 15. As a result, operating system functions shared execution
// resources with the applications." A 16-thread PIC run (OS stealing
// cycles from one CPU) is compared against a 15-thread run with a CPU
// left free for the OS.
type PowerOfTwoComparison struct {
	Proc15 float64 // Mflop/s with one CPU left to the OS
	Proc16 float64 // Mflop/s saturated
}

// ComparePowerOfTwo measures both configurations on the small PIC
// problem. Applications written for powers of two cannot use the
// 15-thread option — this quantifies what that rigidity costs.
func ComparePowerOfTwo() (PowerOfTwoComparison, error) {
	var out PowerOfTwoComparison
	r15, err := pic.RunShared(pic.Small, 15, 5)
	if err != nil {
		return out, err
	}
	r16, err := pic.RunShared(pic.Small, 16, 5)
	if err != nil {
		return out, err
	}
	out.Proc15 = r15.Mflops
	out.Proc16 = r16.Mflops
	return out, nil
}

// LightweightComparison measures repeated parallel regions dispatched
// by full fork-joins versus a persistent worker pool — the §7
// "lightweight threads" future-work item.
type LightweightComparison struct {
	Regions  int
	ForkJoin sim.Cycles
	Pool     sim.Cycles
}

// CompareLightweight runs 10 16-thread regions of small bodies both ways.
func CompareLightweight() (LightweightComparison, error) {
	out := LightweightComparison{Regions: 10}
	body := func(th *machine.Thread, tid int) { th.ComputeCycles(500) }

	m1, err := machine.New(machine.Config{Hypernodes: 2})
	if err != nil {
		return out, err
	}
	m1.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		start := main.Now()
		for r := 0; r < out.Regions; r++ {
			threads.ForkJoin(main, 16, threads.HighLocality, body)
		}
		out.ForkJoin = main.Now() - start
	})
	if err := m1.Run(); err != nil {
		return out, err
	}

	m2, err := machine.New(machine.Config{Hypernodes: 2})
	if err != nil {
		return out, err
	}
	m2.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		p := threads.NewPool(m2, 16, threads.HighLocality)
		start := main.Now()
		for r := 0; r < out.Regions; r++ {
			p.Region(main, body)
		}
		out.Pool = main.Now() - start
		p.Close()
	})
	if err := m2.Run(); err != nil {
		return out, err
	}
	return out, nil
}

// Report runs the full ablation suite and renders it. The studies are
// mutually independent (every comparison builds its own machines), so
// they are dispatched through the host worker pool as sections and
// concatenated in the fixed report order.
func Report() (string, error) {
	parts, err := runner.Sections(
		func() (string, error) {
			tb := stats.NewTable("Ablation: hardware vs. software synchronization (LILO µs)",
				"threads", "hardware barrier", "software (PVM) barrier", "ratio")
			ns := []int{4, 8, 16}
			cs, err := runner.Map(len(ns), func(i int) (BarrierComparison, error) {
				return CompareBarrier(ns[i])
			})
			if err != nil {
				return "", err
			}
			for i, n := range ns {
				c := cs[i]
				tb.AddRow(n, c.Hardware.Micros(), c.Software.Micros(),
					c.Software.Micros()/c.Hardware.Micros())
			}
			return tb.Render() + "\n", nil
		},
		func() (string, error) {
			buf, err := CompareGlobalBuffer()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Ablation: SCI global cache buffer (512 repeated remote reads)\n"+
				"  with buffer:    %v\n  without buffer: %v (%.1fx)\n\n",
				buf.WithBuffer, buf.WithoutBuffer,
				float64(buf.WithoutBuffer)/float64(buf.WithBuffer)), nil
		},
		func() (string, error) {
			rings, err := CompareRings()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Ablation: four parallel rings vs. one (4 FUs streaming)\n"+
				"  four rings: %v\n  one ring:   %v (%.2fx)\n\n",
				rings.FourRings, rings.OneRing,
				float64(rings.OneRing)/float64(rings.FourRings)), nil
		},
		func() (string, error) {
			w := nbody.CountWorkload(32768, 64, 1)
			sched, err := CompareScheduling(w, 16, 2)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Ablation: static partition vs. dynamic self-scheduling (tree code, %d particles, 16 CPUs)\n"+
				"  measured load imbalance: %.3f\n  static:  %.1f Mflop/s\n  dynamic: %.1f Mflop/s (%+.1f%%)\n\n",
				sched.N, sched.Imbalance, sched.Static, sched.Dynamic,
				100*(sched.Dynamic/sched.Static-1)), nil
		},
		func() (string, error) {
			pow2, err := ComparePowerOfTwo()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("Study: power-of-two rigidity vs. OS intrusion (§6, PIC small problem)\n"+
				"  16 threads (OS steals cycles): %.1f Mflop/s\n"+
				"  15 threads (one CPU to the OS): %.1f Mflop/s\n"+
				"  (static power-of-two codes cannot take the 15-thread option)\n\n",
				pow2.Proc16, pow2.Proc15), nil
		},
		ComparePlacement,
		func() (string, error) {
			lw, err := CompareLightweight()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("\nStudy: lightweight threads (§7 future work): %d parallel regions × 16 threads\n"+
				"  fork-join per region: %v\n  persistent pool:      %v (%.1fx lighter)\n",
				lw.Regions, lw.ForkJoin, lw.Pool, float64(lw.ForkJoin)/float64(lw.Pool)), nil
		},
	)
	if err != nil {
		return "", err
	}
	var out string
	for _, p := range parts {
		out += p
	}
	return out, nil
}

// ComparePlacement answers the counterfactual §6 raises: what would
// the non-operational block-shared placement have bought the FEM code?
// It reruns the Fig. 7 sweep around the 8→9 processor dip with the
// partitions homed on their threads' hypernodes.
func ComparePlacement() (string, error) {
	tb := stats.NewTable("Study: FEM with operational block-shared placement (useful Mflop/s)",
		"procs", "near-shared@hn0 (as measured)", "block-shared (counterfactual)")
	ps := []int{8, 9, 12, 16}
	type pair struct{ base, better float64 }
	pts, err := runner.Map(len(ps), func(i int) (pair, error) {
		base, err := fem.RunPlaced(fem.SmallGrid, fem.GatherScatter, ps[i], 3, fem.HostedNearShared)
		if err != nil {
			return pair{}, err
		}
		better, err := fem.RunPlaced(fem.SmallGrid, fem.GatherScatter, ps[i], 3, fem.BlockSharedPartition)
		if err != nil {
			return pair{}, err
		}
		return pair{base.UsefulMflops, better.UsefulMflops}, nil
	})
	if err != nil {
		return "", err
	}
	for i, p := range ps {
		tb.AddRow(p, pts[i].base, pts[i].better)
	}
	return tb.Render(), nil
}
