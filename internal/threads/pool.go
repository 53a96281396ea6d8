package threads

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
)

// Pool is the "lightweight threads" mechanism the paper lists as needed
// future work (§7: "more dynamic load balancing and lightweight threads
// needs to be developed and implemented on this system to ease the
// programming burden"). Workers are spawned once and parked; each
// parallel region costs one wakeup and one join per worker instead of a
// full operating-system thread creation — the difference Fig. 2 prices
// at 4–15 µs per thread per fork.
type Pool struct {
	m       *machine.Machine
	workers []*machine.Thread
	work    []*sim.Queue
	done    *sim.Semaphore
	closed  bool
}

// poolJob carries one region's work assignment; a nil body means
// shutdown.
type poolJob struct {
	body func(th *machine.Thread, tid int)
}

// WakeupCycles is the cost of unparking one pooled worker (a shared-
// variable write plus scheduler handoff — no kernel thread creation).
const WakeupCycles = 60

// NewPool spawns n workers under the placement policy and parks them.
// Must be called from a running simulation context (the workers spawn
// at the machine's current virtual time).
func NewPool(m *machine.Machine, n int, place Placement) *Pool {
	p := &Pool{
		m:    m,
		done: m.K.NewSemaphore("pool.done", 0),
	}
	for tid := 0; tid < n; tid++ {
		tid := tid
		cpu := CPUFor(m.Topo, place, tid, n)
		q := m.K.NewQueue(fmt.Sprintf("pool.work%d", tid))
		p.work = append(p.work, q)
		th := m.Spawn(fmt.Sprintf("w%d", tid), cpu, func(th *machine.Thread) {
			th.Delay(sim.Cycles(m.P.ThreadStart))
			for {
				job := q.Get(th.P).(poolJob)
				if job.body == nil {
					return
				}
				job.body(th, tid)
				p.done.V()
			}
		})
		p.workers = append(p.workers, th)
	}
	return p
}

// Region runs body(th, tid) on every worker and blocks the caller until
// all complete — a parallel region with pool semantics.
func (p *Pool) Region(caller *machine.Thread, body func(th *machine.Thread, tid int)) {
	if p.closed {
		panic("threads: Region on a closed pool")
	}
	for tid := range p.workers {
		caller.ComputeCycles(WakeupCycles)
		p.work[tid].Put(poolJob{body: body})
	}
	caller.Synchronize(func() {
		for range p.workers {
			p.done.P(caller.P)
		}
	})
}

// Close shuts the workers down; the pool cannot be reused.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for tid := range p.workers {
		p.work[tid].Put(poolJob{})
	}
}
