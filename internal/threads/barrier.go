package threads

import (
	"sort"

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
type Barrier struct {
	m       *machine.Machine
	n       int
	sema    topology.Space // uncached counting semaphore
	flag    topology.Space // cached spin variable
	arrived int
	waiters []*waiter
	// Exit timestamps of the most recent episode, for the Fig. 3 metrics.
	lastEnter sim.Cycles
	exits     []sim.Cycles
}

type waiter struct {
	th  *machine.Thread
	sem *sim.Semaphore
}

// NewBarrier allocates a barrier for teams of n threads. The semaphore
// and the spin variable live in near-shared memory hosted on hypernode
// host.
func NewBarrier(m *machine.Machine, n, host int) *Barrier {
	return &Barrier{
		m:    m,
		n:    n,
		sema: m.Alloc("barrier.sema", topology.NearShared, host, 0),
		flag: m.Alloc("barrier.flag", topology.NearShared, host, 0),
	}
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
		w := &waiter{th: th, sem: th.M.K.NewSemaphore("spin", 0)}
		b.waiters = append(b.waiters, w)
		// Cache the spin variable (first spin iteration), then park
		// until the releasing write invalidates our copy.
		th.Read(b.flag, 0)
		w.sem.P(th.P)
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
	invAt := map[topology.CPUID]sim.Cycles{}
	for _, inv := range rep.Invalidated {
		invAt[inv.CPU] = inv.At
	}
	ws := append([]*waiter(nil), b.waiters...)
	sort.SliceStable(ws, func(i, j int) bool {
		return invAt[ws[i].th.CPU] < invAt[ws[j].th.CPU]
	})
	g.Counter("barrier_episodes").Inc()
	g.Histogram("barrier_release").Observe(int64(len(ws)))
	supply := sim.Cycles(0)
	for _, w := range ws {
		at, ok := invAt[w.th.CPU]
		if !ok {
			// The waiter's copy was already gone (conflict eviction):
			// it refetches as soon as the write completes.
			at = rep.Done
		}
		supply = SpinRelease(p, at, supply)
		w := w
		th.M.K.At(supply, func() { w.sem.V() })
	}

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
