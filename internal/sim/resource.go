package sim

// Resource models a unit-capacity hardware resource (a memory bank, a
// crossbar port, a ring segment) as a busy-until horizon. A request
// arriving at time `now` for `dur` cycles of service starts at
// max(now, free horizon) and pushes the horizon to start+dur; the
// difference start-now is the queueing delay the requester observes.
// This is the classical non-preemptive FCFS approximation: deterministic,
// and exact when requests are presented in timestamp order (which the
// event kernel guarantees).
type Resource struct {
	freeAt Cycles
}

// Reserve books dur cycles of service starting no earlier than now.
// It returns the time at which service completes.
func (r *Resource) Reserve(now, dur Cycles) (done Cycles) {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + dur
	return r.freeAt
}

// FreeAt reports the current busy horizon.
func (r *Resource) FreeAt() Cycles { return r.freeAt }
