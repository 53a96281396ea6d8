package threads

import (
	"strconv"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// Dispatcher is the engine half of fork/join: it starts each forked
// child on the machine that owns the child's CPU and carries the
// child's completion back to the parent. A monolithic machine spawns
// and signals directly; parsim.Cluster posts both across partitions.
type Dispatcher interface {
	// Launch starts fn on global CPU cpu at virtual time at.
	Launch(at sim.Cycles, name string, cpu topology.CPUID, fn func(th *machine.Thread))
	// Join signals join, the parent's semaphore, from a child on global
	// CPU cpu that has just finished.
	Join(cpu topology.CPUID, join *sim.Semaphore)
}

// ForkJoin spawns a synchronous team of n threads from the parent thread
// and blocks the parent until every child has terminated (CPSlib's
// synchronous-thread model, paper §3.2). It returns the child Thread
// handles; their CXpa counters remain readable after the join.
func ForkJoin(parent *machine.Thread, n int, place Placement, body func(th *machine.Thread, tid int)) []*machine.Thread {
	return ForkJoinVia(monolithic{parent.M}, parent.M.Topo, parent, n, place, body)
}

// ForkJoinVia is ForkJoin with the children placed on topo, the whole
// simulated machine, and started through d. It holds the runtime's
// whole cost model, for every engine. The parent dispatches children
// serially, paying the local or remote spawn cost per child plus a
// one-time runtime-initialization penalty the first time a fork reaches
// a second hypernode; each child pays a start cost before its body; the
// parent then reaps each child at join. Each child is scheduled at the
// instant its dispatch completes, before the parent advances there, so
// a cross-partition launch is always posted a full spawn ahead.
//
// When the team saturates the whole machine, the OS has no spare CPU and
// steals cycles from thread 0's processor (paper §6) — modeled as a
// fractional Compute slowdown.
func ForkJoinVia(d Dispatcher, topo topology.Topology, parent *machine.Thread, n int, place Placement, body func(th *machine.Thread, tid int)) []*machine.Thread {
	if n < 1 {
		return nil
	}
	m := parent.M
	p := m.P
	children := make([]*machine.Thread, n)
	done := m.K.NewSemaphore("join", 0)
	crossed := false
	saturated := n >= topo.NumCPUs()

	// PMU accounting: the threads group counts runtime events
	// machine-wide (nil-safe when counters are disabled).
	g := m.Counters.Group("threads")
	g.Counter("forks").Inc()
	g.Histogram("team_size").Observe(int64(n))

	for tid := 0; tid < n; tid++ {
		cpu := CPUFor(topo, place, tid, n)
		remote := cpu.Hypernode() != parent.CPU.Hypernode()
		if remote && !crossed {
			crossed = true
			parent.Delay(sim.Cycles(p.RemoteRuntimeInit))
			g.Counter("runtime_inits").Inc()
		}
		spawn := sim.Cycles(p.ThreadSpawnLocal)
		if remote {
			spawn = sim.Cycles(p.ThreadSpawnRemote)
			g.Counter("spawn_remote").Inc()
		} else {
			g.Counter("spawn_local").Inc()
		}
		tid := tid
		d.Launch(parent.Now()+spawn, childName(tid), cpu, func(th *machine.Thread) {
			children[tid] = th
			if saturated && tid == 0 {
				th.SetSlowdown(p.OSIntrusion)
			}
			th.Delay(sim.Cycles(p.ThreadStart))
			body(th, tid)
			d.Join(cpu, done)
		})
		parent.Delay(spawn)
	}
	// Join: wait for all children, then reap them.
	for i := 0; i < n; i++ {
		done.P(parent.P)
	}
	parent.Delay(sim.Cycles(int64(n) * p.JoinPerThread))
	g.Counter("joins").Inc()
	return children
}

// childNames are the names of the first children of a team (t0, t1,
// …), built once rather than formatted per fork.
var childNames = func() (t [topology.MaxHypernodes * topology.CPUsPerNode]string) {
	for i := range t {
		t[i] = "t" + strconv.Itoa(i)
	}
	return t
}()

// childName names child tid of a team.
func childName(tid int) string {
	if tid < len(childNames) {
		return childNames[tid]
	}
	return "t" + strconv.Itoa(tid)
}

// RunTeam is the common harness entry point: it builds the machine's
// root thread on CPU 0, forks a team of n, and runs the simulation to
// completion, returning the fork-to-join virtual duration.
func RunTeam(m *machine.Machine, n int, place Placement, body func(th *machine.Thread, tid int)) (sim.Cycles, error) {
	elapsed, _, err := RunTeamThreads(m, n, place, body)
	return elapsed, err
}

// RunTeamThreads is RunTeam but also returns the child Thread handles,
// whose CXpa instrumentation counters survive the join.
func RunTeamThreads(m *machine.Machine, n int, place Placement, body func(th *machine.Thread, tid int)) (sim.Cycles, []*machine.Thread, error) {
	var elapsed sim.Cycles
	var children []*machine.Thread
	m.Spawn("main", topology.MakeCPU(0, 0, 0), func(parent *machine.Thread) {
		start := parent.Now()
		children = ForkJoin(parent, n, place, body)
		elapsed = parent.Now() - start
	})
	if err := m.Run(); err != nil {
		return 0, nil, err
	}
	return elapsed, children, nil
}
