// Package counters is the hardware-PMU-style observability layer of the
// simulator: monotonic event counters and latency/size histograms owned
// by the machine components (cache, directory, SCI, rings, crossbar,
// thread runtime), grouped per component instance, and snapshotted into
// deterministic, render-ready tables.
//
// The design requirement is zero overhead when disabled. Every handle
// type (*Counter, *Histogram, *Group, *Registry) treats the nil receiver
// as an attached-to-nothing sink: Inc/Add/Observe on nil are single
// branch no-ops that allocate nothing, so components hold handles
// unconditionally and never branch on an "enabled" flag themselves.
// A machine that never calls EnableCounters pays one nil check per
// counted event and nothing else — the acceptance bar is 0 allocs/event
// and ≤2% ns/event on the disabled path, enforced by the package tests
// and the memsys benchmarks.
//
// Counters do not exist in simulated time: attaching or reading them
// never changes a virtual timestamp, so enabling observability cannot
// perturb the experiment being observed.
package counters

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is one monotonically increasing event count. The zero value is
// ready to use; the nil pointer is the disabled sink (Inc/Add no-op).
type Counter struct {
	v       int64
	flushed int64
}

// Inc adds one. No-op on a nil counter.
//
//simlint:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (n may be any non-negative delta). No-op on a nil counter.
//
//simlint:hotpath
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// NumBuckets is the fixed bucket count of every Histogram: power-of-two
// upper bounds 1, 2, 4, … 128, plus one overflow bucket.
const NumBuckets = 9

// bucketFor maps an observation to its bucket index.
func bucketFor(v int64) int {
	bound := int64(1)
	for i := 0; i < NumBuckets-1; i++ {
		if v <= bound {
			return i
		}
		bound <<= 1
	}
	return NumBuckets - 1
}

// Histogram records a distribution of non-negative integer observations
// (purge-walk lengths, invalidation fan-outs, ring hop counts) with
// count/sum/max plus NumBuckets fixed power-of-two buckets. The zero
// value is ready; the nil pointer is the disabled sink.
type Histogram struct {
	cur     HistogramValue
	flushed HistogramValue
}

// Observe records one sample. No-op on a nil histogram.
//
//simlint:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.cur.Count++
	h.cur.Sum += v
	if v > h.cur.Max {
		h.cur.Max = v
	}
	h.cur.Buckets[bucketFor(v)]++
}

// Group is the counter namespace of one component instance (for example
// cache.hn0 or sci). Asking twice for the same name returns the same
// handle, so several sub-components may share one aggregated counter.
// A nil Group hands out nil handles, which keeps the disabled path free.
type Group struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// Counter returns (creating on first use) the named counter in the
// group. On a nil group it returns the nil disabled-sink counter.
func (g *Group) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram in the
// group. On a nil group it returns the nil disabled-sink histogram.
func (g *Group) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	h, ok := g.hists[name]
	if !ok {
		h = &Histogram{}
		g.hists[name] = h
	}
	return h
}

// Registry holds the counter groups of one machine. It is not
// goroutine-safe — one machine's simulation is single-threaded by
// construction — and a nil Registry hands out nil Groups, so a machine
// without counters costs nothing. Cross-machine aggregation goes through
// Collector sinks (see Publish).
type Registry struct {
	groups map[string]*Group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*Group)}
}

// Group returns (creating on first use) the named group. On a nil
// registry it returns the nil disabled-sink group.
func (r *Registry) Group(name string) *Group {
	if r == nil {
		return nil
	}
	g, ok := r.groups[name]
	if !ok {
		g = &Group{counters: make(map[string]*Counter), hists: make(map[string]*Histogram)}
		r.groups[name] = g
	}
	return g
}

// CounterValue is one named count in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one snapshotted distribution.
type HistogramValue struct {
	Name    string            `json:"name,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// Mean reports the sample mean (0 with no samples).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge folds o into h (count/sum/buckets add, max takes the larger).
func (h *HistogramValue) merge(o HistogramValue) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// GroupSnapshot is one group's values, each list sorted by name.
type GroupSnapshot struct {
	Name       string           `json:"name"`
	Counters   []CounterValue   `json:"counters,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot is a deterministic point-in-time copy of a Registry or
// Collector: groups sorted by name, entries sorted by name within each
// group, so equal counter states always render to equal bytes.
type Snapshot struct {
	Groups []GroupSnapshot `json:"groups"`
}

// Snapshot copies the registry's current absolute values. Nil-safe.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	//simlint:allow determinism s.sort() below orders every group and entry by name before anything renders
	for name, g := range r.groups {
		gs := GroupSnapshot{Name: name}
		//simlint:allow determinism s.sort() below orders every group and entry by name before anything renders
		for cn, c := range g.counters {
			gs.Counters = append(gs.Counters, CounterValue{Name: cn, Value: c.v})
		}
		//simlint:allow determinism s.sort() below orders every group and entry by name before anything renders
		for hn, h := range g.hists {
			hv := h.cur
			hv.Name = hn
			gs.Histograms = append(gs.Histograms, hv)
		}
		s.Groups = append(s.Groups, gs)
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Groups, func(i, j int) bool { return s.Groups[i].Name < s.Groups[j].Name })
	for i := range s.Groups {
		g := &s.Groups[i]
		sort.Slice(g.Counters, func(a, b int) bool { return g.Counters[a].Name < g.Counters[b].Name })
		sort.Slice(g.Histograms, func(a, b int) bool { return g.Histograms[a].Name < g.Histograms[b].Name })
	}
}

// Counter reports the value of group/name in the snapshot (0 if absent).
func (s Snapshot) Counter(group, name string) int64 {
	for _, g := range s.Groups {
		if g.Name != group {
			continue
		}
		for _, c := range g.Counters {
			if c.Name == name {
				return c.Value
			}
		}
	}
	return 0
}

// GroupTotal sums counter name over every group named prefix or
// prefix.<instance> — e.g. GroupTotal("directory", "invalidations")
// totals directory.hn0, directory.hn1, ….
func (s Snapshot) GroupTotal(prefix, name string) int64 {
	var tot int64
	for _, g := range s.Groups {
		if g.Name != prefix && !strings.HasPrefix(g.Name, prefix+".") {
			continue
		}
		for _, c := range g.Counters {
			if c.Name == name {
				tot += c.Value
			}
		}
	}
	return tot
}

// Histogram reports the named histogram of a group and whether it exists.
func (s Snapshot) Histogram(group, name string) (HistogramValue, bool) {
	for _, g := range s.Groups {
		if g.Name != group {
			continue
		}
		for _, h := range g.Histograms {
			if h.Name == name {
				return h, true
			}
		}
	}
	return HistogramValue{}, false
}

// Empty reports whether the snapshot holds no groups.
func (s Snapshot) Empty() bool { return len(s.Groups) == 0 }

// Flatten returns the snapshot as dotted-key scalars
// ("cache.hn0.hits" → 12345; histograms contribute .count/.sum/.max),
// the form the sppd job results and /metrics endpoint emit.
func (s Snapshot) Flatten() map[string]int64 {
	out := make(map[string]int64)
	for _, g := range s.Groups {
		for _, c := range g.Counters {
			out[g.Name+"."+c.Name] = c.Value
		}
		for _, h := range g.Histograms {
			out[g.Name+"."+h.Name+".count"] = h.Count
			out[g.Name+"."+h.Name+".sum"] = h.Sum
			out[g.Name+"."+h.Name+".max"] = h.Max
		}
	}
	return out
}

// Render draws the snapshot as the per-component breakdown table that
// `sppbench -counters` appends to each experiment. Deterministic: equal
// snapshots produce equal bytes.
func (s Snapshot) Render(title string) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	if s.Empty() {
		sb.WriteString("(no counters recorded)\n")
		return sb.String()
	}
	const format = "  %-16s %-24s %s\n"
	fmt.Fprintf(&sb, format, "component", "counter", "value")
	fmt.Fprintf(&sb, format, strings.Repeat("-", 16), strings.Repeat("-", 24), strings.Repeat("-", 12))
	for _, g := range s.Groups {
		for _, c := range g.Counters {
			fmt.Fprintf(&sb, format, g.Name, c.Name, fmt.Sprintf("%d", c.Value))
		}
		for _, h := range g.Histograms {
			fmt.Fprintf(&sb, format, g.Name, h.Name,
				fmt.Sprintf("n=%d sum=%d max=%d mean=%.2f", h.Count, h.Sum, h.Max, h.Mean()))
		}
	}
	return sb.String()
}
