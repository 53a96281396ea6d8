// Package microbench contains the synthetic test codes of paper §4:
// fork-join cost (Fig. 2), barrier synchronization cost (Fig. 3), and
// PVM message round-trip time (Fig. 4), plus the §3.2 probes of the
// memory classes and of false sharing. Each sweep runs the primitive on
// a freshly built simulated machine and returns the series the paper
// plots.
package microbench

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/pvm"
	"spp1000/internal/runner"
	"spp1000/internal/sim"
	"spp1000/internal/stats"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// newMachine builds the two-hypernode machine of the paper's testbed.
// The synthetic codes touch only a handful of cache lines, so a reduced
// per-CPU cache geometry (identical timing — no capacity or conflict
// pressure at these footprints) keeps the sweeps' host allocations low.
func newMachine(hypernodes int) (*machine.Machine, error) {
	return machine.New(machine.Config{Hypernodes: hypernodes, CacheLines: 4096})
}

// ForkJoinCost measures one fork-join of n threads under the placement.
func ForkJoinCost(hypernodes, n int, place threads.Placement) (sim.Cycles, error) {
	m, err := newMachine(hypernodes)
	if err != nil {
		return 0, err
	}
	return threads.RunTeam(m, n, place, func(th *machine.Thread, tid int) {})
}

// ForkJoinSweep reproduces Fig. 2: fork-join time in microseconds versus
// thread count, for high-locality and uniform placements. Each sweep
// point is an independent simulation on its own machine, so the points
// are dispatched through the host worker pool and assembled in order.
func ForkJoinSweep(hypernodes, maxThreads int) (highLocality, uniform *stats.Series, err error) {
	type point struct{ hl, un sim.Cycles }
	pts, err := runner.Map(maxThreads, func(i int) (point, error) {
		n := i + 1
		hl, err := ForkJoinCost(hypernodes, n, threads.HighLocality)
		if err != nil {
			return point{}, err
		}
		un, err := ForkJoinCost(hypernodes, n, threads.Uniform)
		if err != nil {
			return point{}, err
		}
		return point{hl, un}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	highLocality = &stats.Series{Name: "high locality"}
	uniform = &stats.Series{Name: "uniform distribution"}
	for i, pt := range pts {
		highLocality.Add(float64(i+1), pt.hl.Micros())
		uniform.Add(float64(i+1), pt.un.Micros())
	}
	return highLocality, uniform, nil
}

// BarrierCost measures one barrier episode with n threads, returning the
// last-in/first-out and last-in/last-out times. Arrivals are staggered
// so the last arrival is unambiguous, as in the paper's method of
// timestamping entry and exit per thread.
func BarrierCost(hypernodes, n int, place threads.Placement) (lifo, lilo sim.Cycles, err error) {
	m, err := newMachine(hypernodes)
	if err != nil {
		return 0, 0, err
	}
	b := threads.NewBarrier(m, n, 0)
	_, err = threads.RunTeam(m, n, place, func(th *machine.Thread, tid int) {
		// Warm episode first (caches, runtime), then the measured one.
		// Arrivals are staggered so thread 0 — local to the barrier's
		// home hypernode — enters last: the paper reports minima over
		// many runs, and the minimum corresponds to a releasing thread
		// with a local fast path to the flag.
		b.Wait(th)
		th.Delay(sim.Cycles((n - 1 - tid) * 700))
		b.Wait(th)
	})
	if err != nil {
		return 0, 0, err
	}
	lifo, lilo = b.LastEpisode()
	return lifo, lilo, nil
}

// BarrierSweep reproduces Fig. 3: four curves (LIFO/LILO × high
// locality/uniform) versus thread count, in microseconds.
func BarrierSweep(hypernodes, maxThreads int) ([]*stats.Series, error) {
	series := []*stats.Series{
		{Name: "LIFO high locality"},
		{Name: "LILO high locality"},
		{Name: "LIFO uniform"},
		{Name: "LILO uniform"},
	}
	type point struct{ lifo, lilo [2]sim.Cycles }
	pts, err := runner.Map(maxThreads-1, func(i int) (point, error) {
		n := i + 2
		var pt point
		for j, place := range []threads.Placement{threads.HighLocality, threads.Uniform} {
			lifo, lilo, err := BarrierCost(hypernodes, n, place)
			if err != nil {
				return pt, err
			}
			pt.lifo[j], pt.lilo[j] = lifo, lilo
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		n := float64(i + 2)
		for j := 0; j < 2; j++ {
			series[2*j].Add(n, pt.lifo[j].Micros())
			series[2*j+1].Add(n, pt.lilo[j].Micros())
		}
	}
	return series, nil
}

// MessageRoundTrip measures a PVM ping-pong of the given payload between
// two CPUs of a two-hypernode machine. global selects a cross-hypernode
// pair.
func MessageRoundTrip(bytes int, global bool) (sim.Cycles, error) {
	m, err := newMachine(2)
	if err != nil {
		return 0, err
	}
	sys := pvm.NewSystem(m)
	a := topology.MakeCPU(0, 0, 0)
	b := topology.MakeCPU(0, 1, 0)
	if global {
		b = topology.MakeCPU(1, 0, 0)
	}
	var rt sim.Cycles
	ready := m.K.NewEvent("ready")
	var ping, pong *pvm.Task
	m.Spawn("ping", a, func(th *machine.Thread) {
		ping = sys.AddTask(th)
		ready.Wait(th.P)
		start := th.Now()
		ping.Send(pong.ID(), 0, bytes)
		ping.Recv()
		rt = th.Now() - start
	})
	m.Spawn("pong", b, func(th *machine.Thread) {
		pong = sys.AddTask(th)
		ready.Set()
		msg := pong.Recv()
		pong.Send(msg.Src, 0, bytes)
	})
	if err := m.Run(); err != nil {
		return 0, err
	}
	return rt, nil
}

// MessageSizes is the sweep of Fig. 4 (64 B to 256 KB, doubling).
func MessageSizes() []int {
	var sizes []int
	for s := 64; s <= 256*1024; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// MessageSweep reproduces Fig. 4: round-trip time in microseconds versus
// message size for a local pair and a cross-hypernode pair.
func MessageSweep() (local, global *stats.Series, err error) {
	sizes := MessageSizes()
	type point struct{ lt, gt sim.Cycles }
	pts, err := runner.Map(len(sizes), func(i int) (point, error) {
		lt, err := MessageRoundTrip(sizes[i], false)
		if err != nil {
			return point{}, err
		}
		gt, err := MessageRoundTrip(sizes[i], true)
		if err != nil {
			return point{}, err
		}
		return point{lt, gt}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	local = &stats.Series{Name: "local"}
	global = &stats.Series{Name: "global"}
	for i, pt := range pts {
		local.Add(float64(sizes[i]), pt.lt.Micros())
		global.Add(float64(sizes[i]), pt.gt.Micros())
	}
	return local, global, nil
}

// ContentionRoundTrip measures the mean round-trip time of `pairs`
// simultaneous cross-hypernode ping-pong pairs — the "compounding
// factor" of a more heavily burdened system that §4.3 flags. Earlier
// single-hypernode experiments "showed little degradation as message
// traffic was increased appreciably"; this measures how far that holds
// across the rings.
func ContentionRoundTrip(bytes, pairs, rounds int, singleRing bool) (sim.Cycles, error) {
	if pairs < 1 || pairs > 4 {
		return 0, fmt.Errorf("microbench: pairs must be 1..4 (one per FU), got %d", pairs)
	}
	m, err := newMachine(2)
	if err != nil {
		return 0, err
	}
	m.Mem.SingleRing = singleRing
	sys := pvm.NewSystem(m)
	ready := m.K.NewEvent("ready")
	reg := m.K.NewSemaphore("reg", 0)
	pingTasks := make([]*pvm.Task, pairs)
	pongTasks := make([]*pvm.Task, pairs)
	var total sim.Cycles
	done := m.K.NewSemaphore("done", 0)
	for i := 0; i < pairs; i++ {
		i := i
		m.Spawn("ping", topology.MakeCPU(0, i, 0), func(th *machine.Thread) {
			pingTasks[i] = sys.AddTask(th)
			reg.V()
			ready.Wait(th.P)
			start := th.Now()
			for r := 0; r < rounds; r++ {
				pingTasks[i].Send(pongTasks[i].ID(), r, bytes)
				pingTasks[i].Recv()
			}
			total += th.Now() - start
			done.V()
		})
		m.Spawn("pong", topology.MakeCPU(1, i, 0), func(th *machine.Thread) {
			pongTasks[i] = sys.AddTask(th)
			reg.V()
			for r := 0; r < rounds; r++ {
				msg := pongTasks[i].Recv()
				pongTasks[i].Send(msg.Src, msg.Tag, bytes)
			}
		})
	}
	m.Spawn("coord", topology.MakeCPU(0, 0, 1), func(th *machine.Thread) {
		for i := 0; i < 2*pairs; i++ {
			reg.P(th.P)
		}
		ready.Set()
		for i := 0; i < pairs; i++ {
			done.P(th.P)
		}
	})
	if err := m.Run(); err != nil {
		return 0, err
	}
	return total / sim.Cycles(pairs*rounds), nil
}

// ContentionSweep reports mean cross-hypernode RT vs. concurrent pairs,
// with the architected four rings and with a hypothetical single ring.
func ContentionSweep(bytes int) (four, one *stats.Series, err error) {
	type point struct{ four, one sim.Cycles }
	pts, err := runner.Map(4, func(i int) (point, error) {
		pairs := i + 1
		f, err := ContentionRoundTrip(bytes, pairs, 8, false)
		if err != nil {
			return point{}, err
		}
		o, err := ContentionRoundTrip(bytes, pairs, 8, true)
		if err != nil {
			return point{}, err
		}
		return point{f, o}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	four = &stats.Series{Name: fmt.Sprintf("4 rings, %d B", bytes)}
	one = &stats.Series{Name: fmt.Sprintf("1 ring, %d B", bytes)}
	for i, pt := range pts {
		four.Add(float64(i+1), pt.four.Micros())
		one.Add(float64(i+1), pt.one.Micros())
	}
	return four, one, nil
}

// ClassLadder characterizes the five virtual-memory classes of §3.2:
// for each class, the cold-miss latency seen by a CPU on hypernode 0
// and by a CPU on hypernode 1, plus a warm re-read. It is the
// quantitative version of the guidance the paper gives programmers
// about placing data.
func ClassLadder() (*stats.Table, error) {
	m, err := newMachine(2)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Memory classes: access latency by accessor location (cycles)",
		"class", "cold, hn0 CPU", "cold, hn1 CPU", "warm re-read")
	near0 := topology.MakeCPU(0, 0, 0)
	far1 := topology.MakeCPU(1, 0, 0)
	classes := []struct {
		name  string
		class topology.Class
	}{
		{"thread-private", topology.ThreadPrivate},
		{"node-private", topology.NodePrivate},
		{"near-shared (hosted hn0)", topology.NearShared},
		{"far-shared", topology.FarShared},
		{"block-shared (1 KB blocks)", topology.BlockShared},
	}
	now := sim.Cycles(0)
	for _, c := range classes {
		sp := m.Alloc(c.name, c.class, 0, 1024)
		r0 := m.Mem.Access(now, near0, sp, 0, false)
		cold0 := int64(r0.Done - now)
		now = r0.Done
		r1 := m.Mem.Access(now, far1, sp, 0, false)
		cold1 := int64(r1.Done - now)
		now = r1.Done
		rw := m.Mem.Access(now, near0, sp, 0, false)
		warm := int64(rw.Done - now)
		now = rw.Done + 1000
		tb.AddRow(c.name, cold0, cold1, warm)
	}
	return tb, nil
}

// FalseSharing measures the §3.2 effect: eight threads each accumulate
// into a per-thread scalar `iters` times. In the "shared" variant the
// scalars are adjacent words of a shared array — four per cache line —
// so every update invalidates the line in three other caches; in the
// "private" variant each scalar is thread private. The ratio is the
// "cache thrashing" the directive eliminates.
func FalseSharing(iters int) (shared, private sim.Cycles, err error) {
	run := func(class topology.Class, spread int) (sim.Cycles, error) {
		m, err := machine.New(machine.Config{Hypernodes: 1})
		if err != nil {
			return 0, err
		}
		sp := m.Alloc("accumulators", class, 0, 0)
		return threads.RunTeam(m, 8, threads.HighLocality, func(th *machine.Thread, tid int) {
			addr := topology.Addr(tid * spread)
			for i := 0; i < iters; i++ {
				th.Read(sp, addr)
				th.ComputeCycles(4) // the accumulation arithmetic
				th.Write(sp, addr)
			}
		})
	}
	// Shared: 8 doubles packed into two cache lines.
	if shared, err = run(topology.NearShared, 8); err != nil {
		return
	}
	// Thread private: each scalar in its own thread's memory (and, being
	// a distinct space offset per thread, in its own line).
	private, err = run(topology.ThreadPrivate, topology.CacheLineBytes)
	return
}

// LatencyProbe reports the modeled access latencies (in cycles) of the
// memory-class ladder for a CPU on hypernode 0 of a machine with the
// given size — the cmd/sppsim inspection output.
func LatencyProbe(hypernodes int) (*stats.Table, error) {
	m, err := newMachine(hypernodes)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(
		fmt.Sprintf("Access latency ladder (%d hypernode(s), cycles)", hypernodes),
		"path", "cycles", "microseconds")
	cpu := topology.MakeCPU(0, 0, 0)

	private := m.Alloc("probe.private", topology.ThreadPrivate, 0, 0)
	rep := m.Mem.Access(0, cpu, private, 0, false)
	tb.AddRow("local FU memory (cold miss)", int64(rep.Done), rep.Done.Micros())
	rep = m.Mem.Access(0, cpu, private, 0, false)
	tb.AddRow("cache hit", int64(rep.Done), rep.Done.Micros())

	near := m.Alloc("probe.near", topology.NearShared, 0, 0)
	var crossFU topology.Addr
	for a := topology.Addr(0); a < 4096; a += 32 {
		if m.Mem.Home(near, a, cpu).FU != cpu.FU() {
			crossFU = a
			break
		}
	}
	rep = m.Mem.Access(0, cpu, near, crossFU, false)
	tb.AddRow("hypernode memory via crossbar", int64(rep.Done), rep.Done.Micros())

	if hypernodes > 1 {
		remote := m.Alloc("probe.remote", topology.NearShared, 1, 0)
		rep = m.Mem.Access(0, cpu, remote, 0, false)
		tb.AddRow("remote hypernode via SCI ring", int64(rep.Done), rep.Done.Micros())
		rep2 := m.Mem.Access(rep.Done, topology.MakeCPU(0, 0, 1), remote, 0, false)
		tb.AddRow("global-buffer hit (2nd CPU)", int64(rep2.Done-rep.Done), (rep2.Done - rep.Done).Micros())
	}
	return tb, nil
}
