package sim

// Proc is a simulated thread of control: a goroutine that runs only when
// the kernel hands it the baton, and parks whenever it waits on virtual
// time or a synchronization object. Proc methods must only be called from
// the Proc's own goroutine (inside the body passed to Spawn).
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	state  string // for deadlock diagnostics: "running", "sleeping", or the waiter description
}

// Spawn creates a Proc named name that will begin executing body at
// virtual time "now". The body runs in simulated time: it only advances
// the clock through Delay / synchronization waits.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), state: "new"}
	k.live++
	//simlint:allow determinism Proc goroutines ARE the kernel's determinism mechanism: the baton handshake runs exactly one at a time
	go func() {
		<-p.resume // wait for the start event
		p.state = "running"
		body(p)
		p.state = "done"
		k.live--
		k.yield <- struct{}{} // return the baton for good
	}()
	k.atProc(k.now, p)
	return p
}

// SpawnAt is Spawn but the body begins at absolute time t.
func (k *Kernel) SpawnAt(t Cycles, name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), state: "new"}
	k.live++
	//simlint:allow determinism Proc goroutines ARE the kernel's determinism mechanism: the baton handshake runs exactly one at a time
	go func() {
		<-p.resume
		p.state = "running"
		body(p)
		p.state = "done"
		k.live--
		k.yield <- struct{}{}
	}()
	k.atProc(t, p)
	return p
}

// Name reports the Proc's name.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Cycles { return p.k.now }

// park suspends the Proc until something calls unpark (via a scheduled
// event). The baton returns to the kernel.
func (p *Proc) park(why string) {
	p.state = why
	p.k.yield <- struct{}{}
	<-p.resume
	p.state = "running"
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
	p.park("sleeping")
}
