package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// totalCycles accumulates the virtual cycles advanced by every kernel in
// the process, folded in once per Run/RunUntil return (never on the
// per-event hot path). It feeds throughput gauges such as sppd's
// simulated-cycles-per-wall-second metric. The process-wide totals are
// pure sums of the per-kernel figures (Now, EventsProcessed), so
// concurrent kernels — runner-pool sweeps, PDES partitions — never
// conflate each other's counts.
var totalCycles atomic.Int64

// totalEvents accumulates the events executed by every kernel in the
// process, folded in alongside totalCycles (see account).
var totalEvents atomic.Int64

// TotalCycles reports the simulated cycles executed by all kernels in
// this process so far. Monotonic; safe for concurrent use.
func TotalCycles() int64 { return totalCycles.Load() }

// TotalEvents reports the events executed by all kernels in this process
// so far, folded in at Run/RunUntil boundaries like TotalCycles. It is
// the numerator of the events-per-second throughput metrics the
// benchmarks report. Monotonic; safe for concurrent use.
func TotalEvents() int64 { return totalEvents.Load() }

// event is a callback scheduled at a virtual time. Events with equal
// timestamps fire in the order they were scheduled (seq breaks ties),
// which makes the simulation deterministic.
//
// The common case by far is a pure timed wake-up of a parked Proc
// (Delay, synchronization releases). Those carry the Proc directly in
// proc and leave fn nil: the kernel resumes the Proc's coroutine directly
// with no closure allocated and no intermediate call.
type event struct {
	at   Cycles
	seq  int64
	proc *Proc  // fast path: resume this Proc directly
	fn   func() // general callback, used when proc is nil
}

// eventHeap is a concrete-typed 4-ary min-heap ordered by (at, seq):
// node i's children are 4i+1..4i+4, so the tree is half as deep as a
// binary heap's and a push or pop walks half as many levels. It
// deliberately does not implement container/heap: the interface{}
// boxing there costs two heap allocations per event (one on Push, one
// on Pop), which at hundreds of millions of simulated events dominates
// the host profile. Pop order is a pure function of the (at, seq) keys
// — which are totally ordered, seq being unique — so replacing the heap
// implementation cannot change the event schedule.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//simlint:hotpath
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

//simlint:hotpath
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = event{} // drop fn/proc references so they can be collected
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
	return e
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h.less(c, least) {
				least = c
			}
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Kernel is a discrete-event simulator: a virtual clock plus an ordered
// event queue. It owns a set of Procs (simulated threads), each a
// coroutine; exactly one of the kernel and its Procs executes at any
// moment.
type Kernel struct {
	now    Cycles
	seq    int64
	events eventHeap

	live int // Procs spawned and not yet finished

	eventsDone int64 // events executed by this kernel

	accounted       Cycles // cycles already folded into totalCycles
	eventsAccounted int64  // events already folded into totalEvents
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Cycles { return k.now }

// EventsProcessed reports the events this kernel has executed so far.
// Per-instance, so concurrent kernels (runner-pool sweeps, PDES
// partitions) report their own work; the process-wide TotalEvents is
// the sum over kernels.
//
//simlint:allow deadexport per-kernel event count the parsim determinism tests compare across worker counts
func (k *Kernel) EventsProcessed() int64 { return k.eventsDone }

// NextEventAt reports the timestamp of the earliest pending event, or
// false if the queue is empty. PDES coordinators use it to compute the
// conservative window horizon without disturbing the queue.
func (k *Kernel) NextEventAt() (Cycles, bool) {
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is an error in the caller; it is clamped to "now" to keep the
// clock monotonic.
func (k *Kernel) At(t Cycles, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// atProc schedules a direct resumption of p at absolute time t — the
// timed-wake-up fast path. Equivalent to At(t, func() { resumeProc(p) })
// but with no closure allocation and no indirect call in the event loop.
//
//simlint:hotpath
func (k *Kernel) atProc(t Cycles, p *Proc) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, proc: p})
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Cycles, fn func()) { k.At(k.now+d, fn) }

// Run executes events in timestamp order until the queue is empty.
// It returns an error if Procs remain alive with nothing scheduled —
// a deadlock in the simulated program. The failure message is built in
// deadlockError, off the hot path, so the event loop stays free of
// heap escapes.
func (k *Kernel) Run() error {
	k.run(math.MaxInt64)
	k.account()
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// deadlockError formats the deadlock failure: live Procs with nothing
// scheduled. Cold by construction — it runs at most once per Run, after
// the event loop has drained — so the fmt boxing it does is kept out of
// the escape-gated hot path (and kept out of line, so inlining cannot
// pull it back in).
//
//go:noinline
func (k *Kernel) deadlockError() error {
	return fmt.Errorf("sim: deadlock: %d procs alive, no events pending at %v", k.live, k.now)
}

// RunUntil executes events until the queue is empty or the clock would
// pass t. The clock is left at t, or where it was if t is in the past.
func (k *Kernel) RunUntil(t Cycles) error {
	k.run(t)
	if k.now < t {
		k.now = t
	}
	k.account()
	return nil
}

// run is the event loop of Run and RunUntil: it pops events in (at,
// seq) order, advances the clock to each, and resumes its Proc or
// calls its callback, until the queue is empty or the next event lies
// after until.
//
//simlint:hotpath
func (k *Kernel) run(until Cycles) {
	for len(k.events) > 0 && k.events[0].at <= until {
		e := k.events.pop()
		k.now = e.at
		k.eventsDone++
		if e.proc != nil {
			k.resumeProc(e.proc)
		} else {
			e.fn()
		}
	}
}

// account folds the cycles and events advanced since the last accounting
// into the process-wide totals. Repeated Run/RunUntil calls on one
// kernel never double-count.
func (k *Kernel) account() {
	if d := k.now - k.accounted; d > 0 {
		k.accounted = k.now
		totalCycles.Add(int64(d))
	}
	if d := k.eventsDone - k.eventsAccounted; d > 0 {
		k.eventsAccounted = k.eventsDone
		totalEvents.Add(d)
	}
}

// resumeProc transfers control to p until it parks or exits. A panic
// in p's body surfaces here, in the caller of Run/RunUntil. Must only
// be called from the kernel loop (inside an event).
//
//simlint:hotpath
func (k *Kernel) resumeProc(p *Proc) {
	p.next()
}
