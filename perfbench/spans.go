package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share an op id; parent is the id of the
// span that caused this one (0 for a root).
type span struct {
	name       string
	id, parent int
	op, lane   int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: do only calls fn.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	lanes  map[int]string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), lanes: make(map[int]string)}
}

// do runs fn inside a span named name and passes fn the span's id, so
// fn can parent further spans on it.
func (t *tracer) do(name string, parent, op, lane int, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, lane: lane, start: time.Since(t.origin)})
	t.mu.Unlock()
	err := fn(id)
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
	return err
}

// nameLane labels a lane (a Chrome trace thread) for the export.
func (t *tracer) nameLane(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// spanTotal is the summed duration and count of the spans of one name.
type spanTotal struct {
	name  string
	n     int
	total time.Duration
}

// totals sums span durations by name, in order of first appearance.
func (t *tracer) totals() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string]int)
	var out []spanTotal
	for _, s := range t.spans {
		i, ok := idx[s.name]
		if !ok {
			i = len(out)
			idx[s.name] = i
			out = append(out, spanTotal{name: s.name})
		}
		out[i].n++
		out[i].total += s.end - s.start
	}
	return out
}

// chromeEvent is one Chrome trace-event record, the format sppprof
// writes: "X" complete events in microseconds, "M" lane names.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chrome renders the spans as Chrome trace-event JSON; other (metric
// values) is embedded as otherData.
func (t *tracer) chrome(process string, other map[string]string) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	lanes := make([]int, 0, len(t.lanes))
	for l := range t.lanes {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	for _, l := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l, Args: map[string]any{"name": t.lanes[l]}})
	}
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Cat: "host", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	return json.Marshal(struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData,omitempty"`
	}{events, "ms", other})
}
