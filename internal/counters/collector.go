//simlint:allow-file determinism the Collector is the mutex-guarded cross-machine sink: merging is commutative and Snapshot sorts, so neither host scheduling nor map iteration order can reach any output

package counters

import (
	"sync"
	"sync/atomic"
)

// Collector is a mutex-guarded aggregation sink: many machines (running
// concurrently on host worker goroutines) publish their per-machine
// Registry deltas into it, and the merged totals are snapshotted for
// rendering or export. Merging is commutative (counts and histogram
// moments add; max takes the larger), so the merged snapshot is
// byte-identical regardless of host scheduling — the property the
// counter determinism test enforces across -par settings.
type Collector struct {
	mu     sync.Mutex
	groups map[string]*collGroup
}

type collGroup struct {
	counters map[string]int64
	hists    map[string]HistogramValue
}

// NewCollector returns an empty sink.
func NewCollector() *Collector {
	return &Collector{groups: make(map[string]*collGroup)}
}

// group returns (creating on first use) the named group's totals.
// Caller holds c.mu.
func (c *Collector) group(name string) *collGroup {
	g, ok := c.groups[name]
	if !ok {
		g = &collGroup{counters: make(map[string]int64), hists: make(map[string]HistogramValue)}
		c.groups[name] = g
	}
	return g
}

// add folds the registry's not-yet-published deltas into the totals;
// a group with no nonzero delta leaves no trace. Caller holds c.mu.
func (c *Collector) add(r *Registry) {
	for _, g := range r.groups {
		var cg *collGroup
		for _, nc := range g.counters {
			if d := nc.c.v - nc.c.flushed; d != 0 {
				if cg == nil {
					cg = c.group(g.name)
				}
				cg.counters[nc.name] += d
			}
		}
		for _, nh := range g.hists {
			h := nh.h
			if h.cur.Count == h.flushed.Count {
				continue
			}
			d := HistogramValue{
				Count: h.cur.Count - h.flushed.Count,
				Sum:   h.cur.Sum - h.flushed.Sum,
				Max:   h.cur.Max, // max is monotonic; merge takes the larger
			}
			for i := range d.Buckets {
				d.Buckets[i] = h.cur.Buckets[i] - h.flushed.Buckets[i]
			}
			if cg == nil {
				cg = c.group(g.name)
			}
			cur := cg.hists[nh.name]
			cur.merge(d)
			cg.hists[nh.name] = cur
		}
	}
}

// Snapshot copies the merged totals, deterministically sorted.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot
	for name, g := range c.groups {
		gs := GroupSnapshot{Name: name}
		for cn, v := range g.counters {
			gs.Counters = append(gs.Counters, CounterValue{Name: cn, Value: v})
		}
		for hn, hv := range g.hists {
			hv.Name = hn
			gs.Histograms = append(gs.Histograms, hv)
		}
		s.Groups = append(s.Groups, gs)
	}
	s.sort()
	return s
}

// The process-wide sink list. Attach/Detach are rare (per experiment or
// per sppd job); Active is the hot check read by machine construction,
// hence the atomic.
var (
	sinksMu sync.Mutex
	sinks   []*Collector
	nsinks  atomic.Int32
)

// Active reports whether any Collector is attached. machine.New consults
// it to decide whether a new machine should carry a Registry at all, so
// the default (no sinks) build path stays counter-free.
func Active() bool { return nsinks.Load() > 0 }

// Attach registers c to receive every subsequent Publish.
func Attach(c *Collector) {
	sinksMu.Lock()
	defer sinksMu.Unlock()
	sinks = append(sinks, c)
	nsinks.Store(int32(len(sinks)))
}

// Detach removes c from the sink list. Publishes after Detach no longer
// reach c; its accumulated totals remain readable.
func Detach(c *Collector) {
	sinksMu.Lock()
	defer sinksMu.Unlock()
	for i, s := range sinks {
		if s == c {
			sinks = append(sinks[:i], sinks[i+1:]...)
			break
		}
	}
	nsinks.Store(int32(len(sinks)))
}

// Publish folds the registry's not-yet-published deltas into every
// attached Collector. Each counter remembers what it has published, so
// repeated Publish calls (a machine Run multiple times) never
// double-count. Nil-safe and cheap with no sinks attached.
func Publish(r *Registry) {
	if r == nil || !Active() {
		return
	}
	sinksMu.Lock()
	defer sinksMu.Unlock()
	if len(sinks) == 0 {
		return
	}
	for _, sink := range sinks {
		sink.mu.Lock()
		sink.add(r)
		sink.mu.Unlock()
	}
	for _, g := range r.groups {
		for _, nc := range g.counters {
			nc.c.flushed = nc.c.v
		}
		for _, nh := range g.hists {
			nh.h.flushed = nh.h.cur
		}
	}
}
