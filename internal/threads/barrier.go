package threads

import (
	"cmp"
	"slices"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
	"spp1000/internal/trace"
)

// Barrier implements the CPSlib barrier exactly as the paper describes
// it (§4.2): each arriving thread decrements an uncached counting
// semaphore, then spins on a cached shared variable; the last thread to
// arrive writes the variable, and the coherence machinery — local
// invalidations plus the SCI reference-tree walk — releases the
// spinners one by one.
//
// The spin itself is not iterated in simulated time; instead each waiter
// parks and is released at the instant its cached copy is invalidated
// plus the serialized cost of re-supplying the line (SpinRefetch +
// SpinReleaseSerial per released spinner), which is what the spin loop
// would observe.
//
// Each waiter parks on its thread's spin semaphore (machine.Thread.Spin),
// and the barrier reuses its waiter list and per-CPU invalidation table
// from episode to episode, so a steady-state episode allocates nothing.
type Barrier struct {
	m       *machine.Machine
	n       int
	sema    topology.Space // uncached counting semaphore
	flag    topology.Space // cached spin variable
	arrived int
	waiters []*machine.Thread
	// invAt[cpu] is the instant the releasing write invalidated cpu's
	// copy of the flag, or -1 if it did not; all -1 between releases.
	invAt []sim.Cycles
	// Exit timestamps of the most recent episode, for the Fig. 3 metrics.
	lastEnter sim.Cycles
	exits     []sim.Cycles
}

// NewBarrier allocates a barrier for teams of n threads. The semaphore
// and the spin variable live in near-shared memory hosted on hypernode
// host.
func NewBarrier(m *machine.Machine, n, host int) *Barrier {
	b := &Barrier{
		m:     m,
		n:     n,
		sema:  m.Alloc("barrier.sema", topology.NearShared, host, 0),
		flag:  m.Alloc("barrier.flag", topology.NearShared, host, 0),
		invAt: make([]sim.Cycles, m.Topo.NumCPUs()),
	}
	for i := range b.invAt {
		b.invAt[i] = -1
	}
	return b
}

// Wait blocks the thread until all n team members have arrived.
func (b *Barrier) Wait(th *machine.Thread) {
	wait := th.Synchronize(func() { b.wait(th) })
	th.M.Trace.Record(th.P.Name(), trace.Sync, th.Now()-wait, th.Now())
}

func (b *Barrier) wait(th *machine.Thread) {
	p := th.M.P

	// Timestamp on entry (the paper's measurement point); the last
	// arrival's timestamp survives the overwrites.
	b.lastEnter = th.Now()

	g := th.M.Counters.Group("threads")
	g.Counter("barrier_waits").Inc()

	th.ComputeCycles(p.BarrierEnter)
	// Decrement the uncached counting semaphore.
	th.RMW(b.sema, 0)
	b.arrived++

	if b.arrived < b.n {
		// Register before touching the flag: the releasing write may
		// land while this thread's first spin read is still in flight.
		b.waiters = append(b.waiters, th)
		// Cache the spin variable (first spin iteration), then park
		// until the releasing write invalidates our copy.
		th.Read(b.flag, 0)
		sem, _ := th.Spin()
		sem.P(th.P)
		b.exits = append(b.exits, th.Now())
		return
	}

	// Last thread in: write the flag and let the invalidation fan-out
	// release the spinners.
	b.exits = b.exits[:0]
	rep := th.Write(b.flag, 0)

	// Release order follows invalidation order; each released spinner
	// additionally pays the spin-detect plus the serialized line
	// re-supply from the flag's home.
	for _, inv := range rep.Invalidated {
		b.invAt[inv.CPU] = inv.At
	}
	// A waiter whose copy was not invalidated sorts as if killed at 0.
	key := func(w *machine.Thread) sim.Cycles { return max(b.invAt[w.CPU], 0) }
	ws := b.waiters
	slices.SortStableFunc(ws, func(x, y *machine.Thread) int { return cmp.Compare(key(x), key(y)) })
	g.Counter("barrier_episodes").Inc()
	g.Histogram("barrier_release").Observe(int64(len(ws)))
	supply := sim.Cycles(0)
	for _, w := range ws {
		at := b.invAt[w.CPU]
		if at < 0 {
			// The waiter's copy was already gone (conflict eviction):
			// it refetches as soon as the write completes.
			at = rep.Done
		}
		supply = SpinRelease(p, at, supply)
		_, release := w.Spin()
		th.M.K.At(supply, release)
	}
	for _, inv := range rep.Invalidated {
		b.invAt[inv.CPU] = -1
	}

	clear(ws)
	b.waiters = b.waiters[:0]
	b.arrived = 0
	b.exits = append(b.exits, th.Now())
}

// SpinRelease is the release instant of the next spinner a barrier
// frees: it observes its copy invalidated at at and refetches the line,
// and its re-supply serializes behind the previous spinner's, released
// at prev.
func SpinRelease(p topology.Params, at, prev sim.Cycles) sim.Cycles {
	return max(at+sim.Cycles(p.SpinRefetch), prev) + sim.Cycles(p.SpinReleaseSerial)
}

// LastEpisode reports the Fig. 3 metrics of the most recent barrier
// episode: the last-in/first-out and last-in/last-out durations.
// Valid once every participant has exited.
func (b *Barrier) LastEpisode() (lifo, lilo sim.Cycles) {
	if len(b.exits) == 0 {
		return 0, 0
	}
	first, last := b.exits[0], b.exits[0]
	for _, e := range b.exits[1:] {
		if e < first {
			first = e
		}
		if e > last {
			last = e
		}
	}
	return first - b.lastEnter, last - b.lastEnter
}
