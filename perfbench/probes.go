package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spp1000/internal/machine"
	"spp1000/internal/memsys"
	"spp1000/internal/microbench"
	"spp1000/internal/parsim"
	"spp1000/internal/service"
	"spp1000/internal/sim"
	"spp1000/internal/store"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// runProbes measures the host time per call of each middle layer in
// isolation: machine construction by size, memory access by service
// class, kernel event and Delay, fork/join and barrier, one PDES window,
// and the service's hot submit and store reads and writes. Each probe
// reports the median over repeated batches. They start from a collected
// heap, so what the workload left behind does not tax them.
func runProbes(cfg config, rep *report) error {
	runtime.GC()
	for _, p := range []func(config, *report) error{
		probeMachine, probeMemsys, probeSim, probeThreads, probeParsim, probeService, probeStore,
	} {
		if err := p(cfg, rep); err != nil {
			return err
		}
	}
	return nil
}

// perOp runs batch reps times and returns the median host nanoseconds
// per operation; batch reports how many operations it made.
func perOp(reps int, batch func() (int, error)) (float64, error) {
	var per []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		n, err := batch()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

func probeMachine(_ config, rep *report) error {
	for _, c := range []struct{ hn, reps int }{{1, 40}, {2, 20}, {16, 7}} {
		ns, err := perOp(c.reps, func() (int, error) {
			_, err := machine.New(machine.Config{Hypernodes: c.hn})
			return 1, err
		})
		if err != nil {
			return err
		}
		rep.add(fmt.Sprintf("machine.new_ms.hn%d", c.hn), ns/1e6, "ms")
	}
	const n = 3
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		if _, err := machine.New(machine.Config{Hypernodes: 16}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.add("machine.new_alloc_mb.hn16", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20), "MB")
	return nil
}

// memStep plays one operation on a memory system at now and returns its
// completion time.
type memStep func(s *memsys.System, sp topology.Space, now sim.Cycles, i int) sim.Cycles

// probeMemsys times memsys.Access per service class on a two-hypernode
// system, construction excluded. Each class walks lines whose class the
// placement fixes: one line read over and over (hit), first touches of
// lines homed on the CPU's own functional unit (local), on another unit
// of its hypernode (hypernode), or on the other hypernode (global). The
// system's own per-CPU statistics confirm every access's class.
func probeMemsys(_ config, rep *report) error {
	topo, err := topology.New(2)
	if err != nil {
		return err
	}
	p := topology.DefaultParams()
	cpu := topology.MakeCPU(0, 0, 0)

	// timed builds a fresh system with one space hosted on host, runs n
	// steps, and checks the system's statistics with want; it returns
	// the median host nanoseconds per step over five such runs.
	timed := func(host, n int, step memStep, want func(memsys.Counters) error) (float64, error) {
		var per []float64
		for r := 0; r < 5; r++ {
			s := memsys.New(topo, p, 0)
			sp := s.Alloc("probe", topology.NearShared, host, 0)
			now := sim.Cycles(0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				now = step(s, sp, now, i)
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
			if err := want(s.TotalCounters()); err != nil {
				return 0, err
			}
		}
		return median(per), nil
	}
	read := func(addrs []topology.Addr) memStep {
		return func(s *memsys.System, sp topology.Space, now sim.Cycles, i int) sim.Cycles {
			return s.Access(now, cpu, sp, addrs[i%len(addrs)], false).Done
		}
	}
	served := func(class string, n int64, got func(memsys.Counters) int64) func(memsys.Counters) error {
		return func(c memsys.Counters) error {
			if g := got(c); g != n {
				return fmt.Errorf("memsys %s probe: %d of %d accesses served as %s", class, g, n, class)
			}
			return nil
		}
	}

	const reads = 100_000 // the first one misses
	ns, err := timed(0, reads, read([]topology.Addr{0}), served("hit", reads-1, func(c memsys.Counters) int64 { return c.Hits }))
	if err != nil {
		return err
	}
	rep.add("memsys.access_ns.hit", ns, "ns")

	const lines = 8192
	for _, c := range []struct {
		name string
		host int
		keep func(line int) bool
		got  func(memsys.Counters) int64
	}{
		{"local", 0, func(l int) bool { return l%topology.FUsPerNode == cpu.FU() }, func(c memsys.Counters) int64 { return c.LocalMisses }},
		{"hypernode", 0, func(l int) bool { return l%topology.FUsPerNode != cpu.FU() }, func(c memsys.Counters) int64 { return c.HypernodeMisses }},
		{"global", 1, func(int) bool { return true }, func(c memsys.Counters) int64 { return c.GlobalMisses }},
	} {
		var addrs []topology.Addr
		for l := 0; len(addrs) < lines; l++ {
			if c.keep(l) {
				addrs = append(addrs, topology.Addr(l*topology.CacheLineBytes))
			}
		}
		ns, err := timed(c.host, lines, read(addrs), served(c.name, lines, c.got))
		if err != nil {
			return err
		}
		rep.add("memsys.access_ns."+c.name, ns, "ns")
	}

	rmw := func(s *memsys.System, sp topology.Space, now sim.Cycles, _ int) sim.Cycles {
		return s.UncachedRMW(now, cpu, sp, 0)
	}
	ns, err = timed(0, reads, rmw, func(memsys.Counters) error { return nil })
	if err != nil {
		return err
	}
	rep.add("memsys.rmw_ns", ns, "ns")
	return nil
}

// probeSim times one kernel event (a self-rescheduling callback) and
// one Proc Delay round trip.
func probeSim(_ config, rep *report) error {
	const n = 200_000
	ns, err := perOp(5, func() (int, error) {
		k := sim.NewKernel()
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				k.After(1, fire)
			}
		}
		k.After(1, fire)
		return n, k.Run()
	})
	if err != nil {
		return err
	}
	rep.add("sim.event_ns", ns, "ns")
	ns, err = perOp(5, func() (int, error) {
		k := sim.NewKernel()
		k.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Delay(1)
			}
		})
		return n, k.Run()
	})
	if err != nil {
		return err
	}
	rep.add("sim.delay_ns", ns, "ns")
	return nil
}

// probeThreads times the Fig. 2 and Fig. 3 primitives at 16 threads on
// two hypernodes, machine construction included.
func probeThreads(_ config, rep *report) error {
	ns, err := perOp(15, func() (int, error) {
		_, err := microbench.ForkJoinCost(2, 16, threads.HighLocality)
		return 1, err
	})
	if err != nil {
		return err
	}
	rep.add("threads.forkjoin_ms", ns/1e6, "ms")
	ns, err = perOp(15, func() (int, error) {
		_, _, err := microbench.BarrierCost(2, 16, threads.HighLocality)
		return 1, err
	})
	if err != nil {
		return err
	}
	rep.add("threads.barrier_ms", ns/1e6, "ms")
	return nil
}

// probeParsim times PDES windows: a 128-thread team with a cluster
// barrier per step on 16 partitions; the team's run divided by the
// coordinator's rounds.
func probeParsim(_ config, rep *report) error {
	const procs, steps = 128, 10
	var per []float64
	for i := 0; i < 3; i++ {
		cl, err := parsim.NewCluster(16)
		if err != nil {
			return err
		}
		nodeOf := make([]int, procs)
		counts := make([]int, 16)
		for tid := range nodeOf {
			nodeOf[tid] = threads.CPUFor(cl.Topo, threads.HighLocality, tid, procs).Hypernode()
			counts[nodeOf[tid]]++
		}
		bar, err := parsim.NewClusterBarrier(cl, counts)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = cl.RunTeam(procs, func(th *machine.Thread, tid int) {
			for s := 0; s < steps; s++ {
				th.ComputeCycles(1000)
				bar.Wait(th, nodeOf[tid])
			}
		})
		if err != nil {
			return err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(cl.Coord.Rounds()))
	}
	rep.add("parsim.round_us", median(per)/1e3, "us")
	return nil
}

// probeService times Server.Submit of a spec whose job is done: the hot
// path, answered from the job table without HTTP.
func probeService(cfg config, rep *report) error {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	spec, err := serviceSpec(cfg.seed)
	if err != nil {
		return err
	}
	v, err := srv.Submit(spec, 0)
	for err == nil && !service.Status(v.Status).Terminal() {
		time.Sleep(time.Millisecond)
		v, err = srv.Job(v.ID)
	}
	if err != nil {
		return err
	}
	if v.Status != string(service.StatusDone) {
		return fmt.Errorf("service probe: job ended %s: %s", v.Status, v.Error)
	}
	ns, err := perOp(5, func() (int, error) {
		const n = 5000
		for i := 0; i < n; i++ {
			if _, err := srv.Submit(spec, 0); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	rep.add("service.submit_hot_us", ns/1e3, "us")
	return nil
}

// probeStore times durable Put and Get of a result-sized payload.
func probeStore(cfg config, rep *report) error {
	dir, err := os.MkdirTemp(cfg.dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	payload := strings.Repeat("spp1000 result line\n", 140)
	const n = 500
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	next := 0
	ns, err := perOp(5, func() (int, error) {
		for i := 0; i < n; i++ {
			if err := st.Put(key(next), payload); err != nil {
				return 0, err
			}
			next++
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	rep.add("store.put_us", ns/1e3, "us")
	ns, err = perOp(5, func() (int, error) {
		for i := 0; i < n; i++ {
			val, ok, err := st.Get(key(i))
			if err != nil {
				return 0, err
			}
			if !ok || val != payload {
				return 0, fmt.Errorf("store probe: entry %d lost", i)
			}
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	rep.add("store.get_us", ns/1e3, "us")
	return nil
}
