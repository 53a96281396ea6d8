//simlint:allow-file determinism merging is commutative and Snapshot sorts, so map iteration order cannot reach any output

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

// merge folds one group's delta into the collector. Caller holds c.mu.
func (c *Collector) merge(group string, counters map[string]int64, hists map[string]HistogramValue) {
	g, ok := c.groups[group]
	if !ok {
		g = &collGroup{counters: make(map[string]int64), hists: make(map[string]HistogramValue)}
		c.groups[group] = g
	}
	for name, v := range counters {
		g.counters[name] += v
	}
	for name, hv := range hists {
		cur := g.hists[name]
		cur.merge(hv)
		g.hists[name] = cur
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
	for name, g := range r.groups {
		var dc map[string]int64
		for cn, c := range g.counters {
			if d := c.v - c.flushed; d != 0 {
				if dc == nil {
					dc = make(map[string]int64)
				}
				dc[cn] = d
				c.flushed = c.v
			}
		}
		var dh map[string]HistogramValue
		for hn, h := range g.hists {
			d := HistogramValue{
				Count: h.cur.Count - h.flushed.Count,
				Sum:   h.cur.Sum - h.flushed.Sum,
				Max:   h.cur.Max, // max is monotonic; merge takes the larger
			}
			for i := range d.Buckets {
				d.Buckets[i] = h.cur.Buckets[i] - h.flushed.Buckets[i]
			}
			if d.Count != 0 {
				if dh == nil {
					dh = make(map[string]HistogramValue)
				}
				dh[hn] = d
				h.flushed = h.cur
			}
		}
		if dc == nil && dh == nil {
			continue
		}
		for _, sink := range sinks {
			sink.mu.Lock()
			sink.merge(name, dc, dh)
			sink.mu.Unlock()
		}
	}
}
