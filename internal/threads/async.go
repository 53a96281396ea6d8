package threads

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting it also deletes its 2 dedicated tests (queued on ROADMAP)

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// Async is the handle of an asynchronous thread (§3.2: "Asynchronous
// threads continue execution independent of one another; the parent
// thread continues to execute without waiting for its children to
// terminate").
type Async struct {
	Thread *machine.Thread
	done   *sim.Event
}

// SpawnAsync creates an asynchronous child on the given CPU. The parent
// pays the dispatch cost (local or remote) and continues immediately.
func SpawnAsync(parent *machine.Thread, cpu topology.CPUID, name string, body func(th *machine.Thread)) *Async {
	m := parent.M
	p := m.P
	if cpu.Hypernode() != parent.CPU.Hypernode() {
		parent.Delay(sim.Cycles(p.ThreadSpawnRemote))
	} else {
		parent.Delay(sim.Cycles(p.ThreadSpawnLocal))
	}
	a := &Async{done: m.K.NewEvent(fmt.Sprintf("join:%s", name))}
	a.Thread = m.SpawnAt(parent.Now(), name, cpu, func(th *machine.Thread) {
		th.Delay(sim.Cycles(p.ThreadStart))
		body(th)
		a.done.Set()
	})
	return a
}

// Join blocks the caller until the asynchronous thread terminates,
// then pays the reap cost.
func (a *Async) Join(parent *machine.Thread) {
	t0, busy0, mem0 := parent.Now(), parent.Busy, parent.MemStall
	a.done.Wait(parent.P)
	parent.SyncWait += (parent.Now() - t0) - (parent.Busy - busy0) - (parent.MemStall - mem0)
	parent.Delay(sim.Cycles(parent.M.P.JoinPerThread))
}

// Done reports whether the thread has terminated (non-blocking).
func (a *Async) Done() bool { return a.done.IsSet() }
