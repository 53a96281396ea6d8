// Package parsim is the conservative parallel-discrete-event (PDES)
// coordinator: it drives several share-nothing sim.Kernel partitions —
// one per simulated hypernode — in lookahead-synchronized time windows,
// optionally on concurrent host goroutines.
//
// The SPP-1000's physical hierarchy supplies the lookahead: every
// modeled interaction that crosses a hypernode boundary pays at least
// the crossbar leg, the fixed SCI packet handling, and one ring hop
// (topology.Params.InterNodeLookahead). Within a window of that width a
// partition cannot affect any other partition, so all partitions may
// execute their local events concurrently. Cross-partition interactions
// are buffered as timestamped messages and delivered at window
// boundaries in a deterministic merge order — (At, source partition,
// source sequence), mirroring the trace-record tie-breaking — so the
// simulation's output is byte-identical at every worker count.
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
//  4. run the runnable partitions — concurrently when more than one is
//     runnable and workers are configured, inline otherwise;
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
// parsim is the one package allowed to spawn goroutines around live
// kernels (simlint class "pdes"); the kernels and device models it
// drives stay goroutine-free sim-core.
package parsim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"spp1000/internal/sim"
)

// workers is the configured window-execution width; 0 (the default)
// means serial.
var workers atomic.Int64

// SetWorkers fixes how many host goroutines execute partitions within
// each window. n <= 1 (and the default) is serial: partitions run in
// index order on the calling goroutine, which is also the reference
// order every parallel execution must — and by construction does —
// reproduce byte-identically. Wired to sppbench's -simpar flag the way
// -par wires runner.SetWorkers.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers reports the effective width (1 = serial).
func Workers() int {
	if n := workers.Load(); n > 1 {
		return int(n)
	}
	return 1
}

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

	// Per-round state. The coordinator goroutine writes these between
	// rounds; workers read them after the jobs-channel send (the channel
	// operations order the accesses).
	ends     []sim.Cycles // per-partition horizon (drainAll = unbounded)
	nexts    []sim.Cycles // per-partition next-event snapshot
	has      []bool       // whether nexts[i] is valid
	runnable []int        // partitions executing this round
	width    int          // worker stripe stride for the current Run
	msgs     []Msg        // deliver scratch
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
	w := Workers()
	if w > len(c.parts) {
		w = len(c.parts)
	}
	n := len(c.parts)
	if c.ends == nil {
		c.ends = make([]sim.Cycles, n)
		c.nexts = make([]sim.Cycles, n)
		c.has = make([]bool, n)
		c.runnable = make([]int, 0, n)
	}
	c.width = w
	var jobs chan int
	var done chan struct{}
	if w > 1 {
		// Persistent window workers: spawning goroutines per window would
		// dominate the fine-grained rounds, so w−1 workers live for the
		// whole run and the coordinator goroutine executes stripe 0 itself
		// instead of parking — 2(w−1) channel operations per round,
		// independent of the partition count. Worker/coordinator g runs
		// runnable[g], runnable[g+w], ….
		jobs = make(chan int, w)
		done = make(chan struct{}, w)
		defer close(jobs)
		for g := 1; g < w; g++ {
			go func() {
				for g := range jobs {
					for k := g; k < len(c.runnable); k += c.width {
						c.runPart(c.runnable[k])
					}
					done <- struct{}{}
				}
			}()
		}
	}

	for {
		if err := c.deliver(); err != nil {
			return err
		}
		// Snapshot per-partition next-event times; track the earliest two
		// (with ties landing in min2) for the horizon computation.
		any := false
		var min1, min2 sim.Cycles
		i1, hasMin2 := -1, false
		for i, p := range c.parts {
			at, ok := p.K.NextEventAt()
			c.has[i] = ok
			if !ok {
				continue
			}
			c.nexts[i] = at
			any = true
			switch {
			case i1 < 0:
				min1, i1 = at, i
			case at < min1:
				min2, hasMin2 = min1, true
				min1, i1 = at, i
			case !hasMin2 || at < min2:
				min2, hasMin2 = at, true
			}
		}
		if !any {
			break
		}
		// Each partition's horizon is the earliest event of any *other*
		// partition plus lookahead − 1: nothing another partition emits
		// this round can land below that (half-open: a message may land
		// at exactly E + lookahead, so stop one cycle short). The sole
		// holder of events has no horizon and drains until it emits.
		runnable := c.runnable[:0]
		for i := range c.parts {
			if !c.has[i] {
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
			if end != drainAll && c.nexts[i] > end {
				continue // nothing executable below the horizon this round
			}
			c.ends[i] = end
			runnable = append(runnable, i)
		}
		c.runnable = runnable
		c.rounds++
		if w > 1 && len(runnable) > 1 {
			m := w
			if len(runnable) < m {
				m = len(runnable) // higher stripes are empty
			}
			for g := 1; g < m; g++ {
				jobs <- g
			}
			for k := 0; k < len(runnable); k += w {
				c.runPart(runnable[k]) // stripe 0, on this goroutine
			}
			for g := 1; g < m; g++ {
				<-done
			}
		} else {
			for _, i := range runnable {
				c.runPart(i)
			}
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

// runPart advances partition i through its share of the round: to its
// horizon, or — for the sole holder of events — batch by batch until
// its queue empties or it first posts a cross-partition message.
//
//simlint:hotpath
func (c *Coordinator) runPart(i int) {
	p := c.parts[i]
	end := c.ends[i]
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
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].At != msgs[j].At {
			return msgs[i].At < msgs[j].At
		}
		if msgs[i].src != msgs[j].src {
			return msgs[i].src < msgs[j].src
		}
		return msgs[i].seq < msgs[j].seq
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
