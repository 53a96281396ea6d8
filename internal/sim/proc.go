//go:build go1.23

package sim

import "iter"

// Proc is a simulated thread of control: a coroutine (iter.Pull) that
// runs only when the kernel resumes it, and parks whenever it waits on
// virtual time or a synchronization object. Proc methods must only be
// called from inside the body passed to Spawn.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool) // kernel -> Proc: run until the next park or exit
	yield func(struct{}) bool     // Proc -> kernel: I have parked
}

// Spawn creates a Proc named name that will begin executing body at
// virtual time "now". The body runs in simulated time: it only advances
// the clock through Delay / synchronization waits.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt is Spawn but the body begins at absolute time t.
func (k *Kernel) SpawnAt(t Cycles, name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	// No stop: a body that returns ends its coroutine, and a Proc left
	// parked by a deadlock is never resumed.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
		k.live--
	})
	k.live++
	k.atProc(t, p)
	return p
}

// Name reports the Proc's name.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Cycles { return p.k.now }

// park suspends the Proc until something calls unpark (via a scheduled
// event). Control returns to the kernel.
func (p *Proc) park() {
	p.yield(struct{}{})
}

// unparkAt schedules the Proc to resume at absolute time t, on the
// kernel's direct-resume fast path (no closure, no intermediate call).
func (p *Proc) unparkAt(t Cycles) {
	p.k.atProc(t, p)
}

// Delay advances the Proc's local view of time by d cycles: it parks and
// resumes after all events up to now+d have fired. Negative delays are
// clamped to zero — the virtual clock is monotonic, so the Proc cannot
// travel backwards; a zero delay still yields, letting same-time events
// interleave in deterministic scheduled order.
//
//simlint:hotpath
func (p *Proc) Delay(d Cycles) {
	if d < 0 {
		d = 0
	}
	p.unparkAt(p.k.now + d)
	p.park()
}
