package parsim

import (
	"fmt"
	"strings"
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/threads"
)

// eventsProcessed sums the partitions' per-kernel event counts.
func eventsProcessed(c *Coordinator) int64 {
	var n int64
	for _, p := range c.parts {
		n += p.K.EventsProcessed()
	}
	return n
}

// collect runs fn with a fresh collector attached and returns what
// Cluster.Run published into it — one machine-wide snapshot:
// per-hypernode groups (cache.hn<N>, …) are distinct by construction
// (machine.Config.NodeIndex), machine-wide groups (mem, sci, ring,
// threads) sum across nodes.
func collect(fn func()) counters.Snapshot {
	coll := counters.NewCollector()
	counters.Attach(coll)
	defer counters.Detach(coll)
	fn()
	return coll.Snapshot()
}

// TestWindowBoundaryMessage pins the off-by-one edge that breaks
// conservative PDES: a message posted at exactly now + lookahead must
// be delivered before the destination executes that instant. With a
// closed window [T, T+L] the destination would run past the message's
// timestamp first and delivery would be a causality violation; the
// half-open horizon T+L−1 makes it land, at the right time, ordered
// after the destination's own same-instant event.
func TestWindowBoundaryMessage(t *testing.T) {
	const lookahead = 100
	run := func() (string, error) {
		k0, k1 := sim.NewKernel(), sim.NewKernel()
		c, err := New(lookahead, []*sim.Kernel{k0, k1})
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		note := func(who string, k *sim.Kernel) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", who, int64(k.Now()))) }
		}
		k1.At(104, note("k1-before", k1))
		k1.At(105, note("k1-same-instant", k1))
		k1.At(106, note("k1-after", k1))
		k0.At(5, func() {
			// Exactly the horizon: 5 + lookahead.
			c.Partition(0).Post(1, 105, note("msg", k1))
		})
		if err := c.Run(); err != nil {
			return "", err
		}
		return strings.Join(log, " "), nil
	}
	want := "k1-before@104 k1-same-instant@105 msg@105 k1-after@106"
	got, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestPostInsideLookaheadFails proves the conservative invariant is
// enforced: posting under the horizon is surfaced as a Run error.
func TestPostInsideLookaheadFails(t *testing.T) {
	k0, k1 := sim.NewKernel(), sim.NewKernel()
	c, err := New(100, []*sim.Kernel{k0, k1})
	if err != nil {
		t.Fatal(err)
	}
	k0.At(10, func() {
		c.Partition(0).Post(1, 109, func() {}) // horizon is 110
	})
	err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "lookahead horizon") {
		t.Fatalf("Run() = %v, want lookahead-horizon error", err)
	}
}

// TestCoordinatorDeterminism round-trips messages among four partitions
// and requires two runs to execute the byte-identical event order.
func TestCoordinatorDeterminism(t *testing.T) {
	const (
		n         = 4
		lookahead = 50
		limit     = 5000
	)
	run := func() (string, int64) {
		kernels := make([]*sim.Kernel, n)
		logs := make([][]string, n)
		for i := range kernels {
			kernels[i] = sim.NewKernel()
		}
		c, err := New(lookahead, kernels)
		if err != nil {
			t.Fatal(err)
		}
		// Each partition bounces a token to its neighbor, staggered so
		// windows hold a mix of local events and messages.
		var hop func(i int) func()
		hop = func(i int) func() {
			return func() {
				k := kernels[i]
				logs[i] = append(logs[i], fmt.Sprintf("p%d@%v", i, k.Now()))
				if k.Now() < limit {
					c.Partition(i).Post((i+1)%n, k.Now()+lookahead+sim.Cycles(i), hop((i+1)%n))
				}
			}
		}
		for i := range kernels {
			kernels[i].At(sim.Cycles(7*i), hop(i))
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var all []string
		for i := range logs {
			all = append(all, logs[i]...)
		}
		return strings.Join(all, " "), eventsProcessed(c)
	}
	base, baseEvents := run()
	got, events := run()
	if got != base {
		t.Fatal("log diverged between two runs")
	}
	if events != baseEvents {
		t.Fatalf("%d events, first run executed %d", events, baseEvents)
	}
	if baseEvents == 0 {
		t.Fatal("no events executed")
	}
}

// TestClusterTeamDeterminism runs a cross-hypernode fork/join with a
// cluster barrier twice and requires identical elapsed time,
// per-partition event counts, and merged counters.
func TestClusterTeamDeterminism(t *testing.T) {
	const procs = 32 // 4 hypernodes
	run := func() (sim.Cycles, string, string) {
		cl, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cl.Nodes {
			n.M.EnableCounters()
		}
		counts := []int{8, 8, 8, 8}
		bar, err := NewClusterBarrier(cl, counts)
		if err != nil {
			t.Fatal(err)
		}
		var elapsed sim.Cycles
		snap := collect(func() {
			elapsed, err = cl.RunTeam(procs, func(th *machine.Thread, tid int) {
				for s := 0; s < 3; s++ {
					th.ComputeCycles(int64(1000 * (tid%4 + 1)))
					bar.Wait(th, tid/8)
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		var ev []string
		for i, n := range cl.Nodes {
			ev = append(ev, fmt.Sprintf("p%d=%d", i, n.M.K.EventsProcessed()))
		}
		return elapsed, strings.Join(ev, " "), snap.Render("counters")
	}
	baseElapsed, baseEvents, baseCounters := run()
	if baseElapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", baseElapsed)
	}
	elapsed, events, ctrs := run()
	if elapsed != baseElapsed {
		t.Fatalf("elapsed %v, first run %v", elapsed, baseElapsed)
	}
	if events != baseEvents {
		t.Fatalf("events %q, first run %q", events, baseEvents)
	}
	if ctrs != baseCounters {
		t.Fatal("counters diverged between two runs")
	}
}

// TestClusterTeamCountsLikeForkJoin proves the cluster forks through
// the threads runtime: a 32-thread team on 4 hypernodes reports the
// same threads counters as monolithic ForkJoin on a 4-hypernode machine.
func TestClusterTeamCountsLikeForkJoin(t *testing.T) {
	const procs = 32
	body := func(th *machine.Thread, tid int) { th.ComputeCycles(1000) }

	m, err := machine.New(machine.Config{Hypernodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableCounters()
	if _, err := threads.RunTeam(m, procs, threads.HighLocality, body); err != nil {
		t.Fatal(err)
	}
	mono := m.Counters.Snapshot()

	cl, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes {
		n.M.EnableCounters()
	}
	part := collect(func() { _, err = cl.RunTeam(procs, body) })
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"forks", "joins", "spawn_local", "spawn_remote", "runtime_inits"} {
		want := mono.Counter("threads", name)
		if got := part.Counter("threads", name); got != want || want == 0 {
			t.Errorf("threads.%s: cluster %d, ForkJoin %d (want equal and nonzero)", name, got, want)
		}
	}
	want, ok := mono.Histogram("threads", "team_size")
	got, _ := part.Histogram("threads", "team_size")
	if !ok || got != want {
		t.Errorf("threads.team_size: cluster %+v, ForkJoin %+v", got, want)
	}
}

// TestClusterDeadlockDiagnosed proves a stuck partition surfaces the
// kernel's deadlock diagnostics with its partition number.
func TestClusterDeadlockDiagnosed(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	sem := cl.Nodes[1].M.K.NewSemaphore("never", 0)
	cl.Nodes[1].M.Spawn("stuck", 0, func(th *machine.Thread) { sem.P(th.P) })
	err = cl.Run()
	if err == nil || !strings.Contains(err.Error(), "partition 1") || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run() = %v, want partition-1 deadlock", err)
	}
}
