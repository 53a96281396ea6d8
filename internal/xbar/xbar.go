// Package xbar models the 5-port crossbar switch joining the four
// functional units of a hypernode (the fifth port serves I/O, paper §2.4).
// Each port is a unit-capacity resource; a transfer occupies both the
// source and destination ports for its duration, so conflicting traffic
// queues — the "cross-bar switch and memory bank conflicts" that stretch
// the 50-cycle miss toward 60 (paper §2.6).
package xbar

import (
	"spp1000/internal/counters"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// hooks are the optional PMU-style counter handles, nil (free no-ops)
// until AttachCounters.
type hooks struct {
	grants         *counters.Counter
	conflicts      *counters.Counter
	conflictCycles *counters.Counter
}

// Crossbar is one hypernode's switch.
type Crossbar struct {
	ports [topology.FUsPerNode + 1]sim.Resource // 4 FU ports + 1 I/O port
	ctr   hooks
}

// AttachCounters mirrors traversals into the group: grants (port pairs
// booked), conflicts (traversals that had to wait for a busy port), and
// conflict_cycles (total cycles lost to those waits). A nil group
// detaches.
func (x *Crossbar) AttachCounters(g *counters.Group) {
	x.ctr = hooks{
		grants:         g.Counter("grants"),
		conflicts:      g.Counter("conflicts"),
		conflictCycles: g.Counter("conflict_cycles"),
	}
}

// New returns an idle crossbar.
func New() *Crossbar { return &Crossbar{} }

// Traverse books a transfer from port src to port dst starting at now,
// occupying both ports for dur cycles. It returns the completion time,
// which includes any queueing delay behind earlier traffic.
func (x *Crossbar) Traverse(now sim.Cycles, src, dst int, dur sim.Cycles) sim.Cycles {
	if src == dst {
		return now + dur
	}
	start := now
	if t := x.ports[src].FreeAt(); t > start {
		start = t
	}
	if t := x.ports[dst].FreeAt(); t > start {
		start = t
	}
	x.ports[src].Reserve(start, dur)
	x.ports[dst].Reserve(start, dur)
	x.ctr.grants.Inc()
	if start > now {
		x.ctr.conflicts.Inc()
		x.ctr.conflictCycles.Add(int64(start - now))
	}
	return start + dur
}
