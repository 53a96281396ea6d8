// Package parsim is the conservative parallel-discrete-event (PDES)
// coordinator: it drives several share-nothing sim.Kernel partitions —
// one per simulated hypernode — in lookahead-synchronized time windows.
//
// The SPP-1000's physical hierarchy supplies the lookahead: every
// modeled interaction that crosses a hypernode boundary pays at least
// the crossbar leg, the fixed SCI packet handling, and one ring hop
// (topology.Params.InterNodeLookahead). Within a window of that width a
// partition cannot affect any other partition, so each partition
// executes its window's local events without looking at the others.
// Cross-partition interactions are buffered as timestamped messages and
// delivered at window boundaries in a deterministic merge order — (At,
// source partition, source sequence), mirroring the trace-record
// tie-breaking.
//
// The window protocol each round is:
//
//  1. collect every partition's outbox (partition index order), stable
//     sort by (At, src, seq), and schedule each message on its
//     destination kernel;
//  2. snapshot every partition's next pending event time E_i; stop if
//     no partition has events;
//  3. give each partition its conservative horizon — the earliest
//     instant any other partition could still affect it: min over the
//     other partitions' E_j, plus lookahead − 1 (half-open: a message
//     posted at exactly now + lookahead must be delivered before the
//     destination executes that instant, so the horizon stops one cycle
//     short). A partition that is the only one holding events has no
//     horizon and drains its whole queue; a partition whose next event
//     lies beyond its horizon sits the round out;
//  4. run the runnable partitions, in index order, on the calling
//     goroutine;
//  5. repeat until every queue is drained, then surface any per-kernel
//     deadlock diagnostics.
//
// Safety: partition j only emits while executing events, so nothing it
// sends this round carries At < E_j + lookahead; partition i executes
// only below min_{j≠i}(E_j) + lookahead. Every message is therefore
// delivered before its destination's clock reaches it. Partition.Post
// enforces the lookahead bound on the sender. Progress: the partition
// holding the globally earliest event always has E ≤ its horizon, so
// every round executes at least one event.
//
// Rounds carry few events — the 128-CPU PIC and FEM runs execute 32–34
// per round — so handing a round's partitions to host goroutines costs
// more than it saves; parsim is goroutine-free sim-core like the kernels
// it drives.
package parsim

import (
	"cmp"
	"fmt"
	"slices"

	"spp1000/internal/sim"
)

// SetWorkers accepts a PDES worker count and has no effect: windows
// always run inline, in partition index order, because a round carries
// a few dozen events, too few for a handoff to host goroutines to repay
// its channel operations and wake-ups. It stays because the perfbench
// harness still calls it.
func SetWorkers(int) {}

// Msg is one buffered cross-partition interaction: Fn runs on the
// destination partition's kernel at virtual time At.
type Msg struct {
	// At is the virtual delivery time on the destination kernel.
	At sim.Cycles
	// Dst is the destination partition index.
	Dst int
	// Fn is the action to schedule there (runs inside the destination
	// kernel's event loop, so it may touch that partition's state only).
	Fn func()

	src int   // posting partition, first tie-break after At
	seq int64 // per-source sequence, final tie-break
}

// Partition is one share-nothing slice of the simulated machine: a
// kernel plus the outbox through which it interacts with the others.
type Partition struct {
	// K is the partition's event kernel. Only the coordinator (between
	// windows) and the partition's own events may touch it.
	K *sim.Kernel

	c      *Coordinator
	idx    int
	outbox []Msg
	seq    int64
	err    error
}

// Post buffers fn for execution on partition dst at virtual time at.
// Must be called from within an event executing on this partition's
// kernel. The conservative invariant requires at ≥ now + lookahead
// (at == now + lookahead, the window horizon itself, is legal — that
// boundary is exactly what the half-open window protects); a violation
// is recorded and surfaced as the coordinator's Run error, with the
// message clamped to the horizon so the run stays deterministic.
func (p *Partition) Post(dst int, at sim.Cycles, fn func()) {
	if horizon := p.K.Now() + p.c.lookahead; at < horizon {
		if p.err == nil {
			p.err = fmt.Errorf("parsim: partition %d posts to %d at %v, inside the lookahead horizon %v (now %v + lookahead %v)",
				p.idx, dst, at, horizon, p.K.Now(), p.c.lookahead)
		}
		at = horizon
	}
	if dst == p.idx {
		// Same-partition post: no boundary to cross, so schedule directly
		// — the sender may keep executing past the delivery time within
		// its own window without any causality hazard.
		p.K.At(at, fn)
		return
	}
	p.seq++
	p.outbox = append(p.outbox, Msg{At: at, Dst: dst, Fn: fn, src: p.idx, seq: p.seq})
}

// drainAll marks a partition with no horizon this round: it is the only
// one holding events, so it may run until its queue empties or it first
// emits a cross-partition message — from that instant a recipient could
// start replying, so a real horizon exists again.
const drainAll = sim.Cycles(-1)

// Coordinator owns the partitions and runs the window protocol.
type Coordinator struct {
	lookahead sim.Cycles
	parts     []*Partition
	rounds    int64
	msgs      []Msg // deliver scratch
}

// New builds a coordinator over the given kernels (one partition each,
// in slice order) with the given conservative lookahead.
func New(lookahead sim.Cycles, kernels []*sim.Kernel) (*Coordinator, error) {
	if lookahead < 1 {
		return nil, fmt.Errorf("parsim: lookahead must be >= 1 cycle, got %v", lookahead)
	}
	if len(kernels) < 1 {
		return nil, fmt.Errorf("parsim: need at least one kernel")
	}
	c := &Coordinator{lookahead: lookahead}
	for i, k := range kernels {
		if k == nil {
			return nil, fmt.Errorf("parsim: kernel %d is nil", i)
		}
		c.parts = append(c.parts, &Partition{K: k, c: c, idx: i})
	}
	return c, nil
}

// Partition returns partition i.
func (c *Coordinator) Partition(i int) *Partition { return c.parts[i] }

// Rounds reports how many windows the last Run executed (a measure of
// synchronization intensity: events ÷ rounds is the per-window grain).
func (c *Coordinator) Rounds() int64 { return c.rounds }

// Run executes the window protocol to completion: deliver buffered
// messages, advance every runnable partition to its conservative
// horizon, repeat until all queues drain. It returns the first
// lookahead violation, causality error, or per-partition deadlock (live
// procs with nothing scheduled), checked in deterministic partition
// order.
func (c *Coordinator) Run() error {
	for {
		if err := c.deliver(); err != nil {
			return err
		}
		// Find the earliest two next-event times (with ties landing in
		// min2) for the horizon computation.
		var min1, min2 sim.Cycles
		i1, hasMin2 := -1, false
		for i, p := range c.parts {
			at, ok := p.K.NextEventAt()
			switch {
			case !ok:
			case i1 < 0:
				min1, i1 = at, i
			case at < min1:
				min2, hasMin2 = min1, true
				min1, i1 = at, i
			case !hasMin2 || at < min2:
				min2, hasMin2 = at, true
			}
		}
		if i1 < 0 {
			break
		}
		// Each partition's horizon is the earliest event of any *other*
		// partition plus lookahead − 1: nothing another partition emits
		// this round can land below that (half-open: a message may land
		// at exactly E + lookahead, so stop one cycle short). The sole
		// holder of events has no horizon and drains until it emits.
		// Running a partition only fills its own kernel and outbox, so
		// the partitions after it still see the next-event times the
		// horizons were computed from.
		c.rounds++
		for i, p := range c.parts {
			at, ok := p.K.NextEventAt()
			if !ok {
				continue
			}
			var end sim.Cycles
			switch {
			case i == i1 && !hasMin2:
				end = drainAll
			case i == i1:
				end = min2 + c.lookahead - 1
			default:
				end = min1 + c.lookahead - 1
			}
			if end != drainAll && at > end {
				continue // nothing executable below the horizon this round
			}
			p.run(end)
		}
		for _, p := range c.parts {
			if p.err != nil {
				return p.err
			}
		}
	}

	// Queues drained everywhere: any partition still holding live procs
	// is deadlocked; Run on the empty kernel surfaces its diagnostics.
	for _, p := range c.parts {
		if err := p.K.Run(); err != nil {
			return fmt.Errorf("parsim: partition %d: %w", p.idx, err)
		}
	}
	return nil
}

// run advances the partition through its share of the round: to its
// horizon end, or — for the sole holder of events (end == drainAll) —
// batch by batch until its queue empties or it first posts a
// cross-partition message.
//
//simlint:hotpath
func (p *Partition) run(end sim.Cycles) {
	if end == drainAll {
		for len(p.outbox) == 0 {
			at, ok := p.K.NextEventAt()
			if !ok {
				return
			}
			if err := p.K.RunUntil(at); err != nil {
				if p.err == nil {
					p.err = err
				}
				return
			}
		}
		return
	}
	if err := p.K.RunUntil(end); err != nil && p.err == nil {
		p.err = err
	}
}

// deliver collects every outbox, merges deterministically, and schedules
// the messages on their destination kernels.
func (c *Coordinator) deliver() error {
	msgs := c.msgs[:0]
	for _, p := range c.parts {
		msgs = append(msgs, p.outbox...)
		p.outbox = p.outbox[:0]
	}
	c.msgs = msgs
	slices.SortStableFunc(msgs, func(x, y Msg) int {
		return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.src, y.src), cmp.Compare(x.seq, y.seq))
	})
	for _, m := range msgs {
		if m.Dst < 0 || m.Dst >= len(c.parts) {
			return fmt.Errorf("parsim: partition %d posted to nonexistent partition %d", m.src, m.Dst)
		}
		dst := c.parts[m.Dst]
		if m.At < dst.K.Now() {
			return fmt.Errorf("parsim: causality violation: message from partition %d for partition %d at %v arrives with the destination clock already at %v",
				m.src, m.Dst, m.At, dst.K.Now())
		}
		dst.K.At(m.At, m.Fn)
	}
	return nil
}
