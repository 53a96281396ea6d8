// Package trace records what each simulated thread was doing when, and
// renders the result as a text timeline — the visualization counterpart
// to the CXpa profile tables (§6 credits "performance instrumentation
// and visualization tools" for the optimization work).
//
// States are recorded as half-open virtual-time intervals. Rendering
// buckets the timeline into fixed-width character lanes:
//
//	#  computing        =  waiting on memory
//	.  synchronization  (space)  idle / not yet started
package trace

import (
	"fmt"
	"sort"
	"strings"

	"spp1000/internal/sim"
)

// State classifies what a thread spends time on.
type State byte

const (
	// Busy is time spent computing (rendered '#').
	Busy State = '#'
	// Mem is time stalled on memory accesses (rendered '=').
	Mem State = '='
	// Sync is time parked in synchronization primitives (rendered '.').
	Sync State = '.'
)

// Interval is one recorded span of a thread's time.
type Interval struct {
	Lane  string
	State State
	From  sim.Cycles
	To    sim.Cycles
}

// Recorder accumulates intervals. The zero value is ready to use; a nil
// *Recorder ignores all records, so callers can leave tracing off
// without branching.
type Recorder struct {
	intervals []Interval
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record adds one interval (ignored on a nil recorder or when to ≤ from).
func (r *Recorder) Record(lane string, st State, from, to sim.Cycles) {
	if r == nil || to <= from {
		return
	}
	r.intervals = append(r.intervals, Interval{Lane: lane, State: st, From: from, To: to})
}

// Len reports the recorded interval count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.intervals)
}

// Span reports the earliest and latest recorded instants.
func (r *Recorder) Span() (from, to sim.Cycles) {
	if r == nil || len(r.intervals) == 0 {
		return 0, 0
	}
	from, to = r.intervals[0].From, r.intervals[0].To
	for _, iv := range r.intervals[1:] {
		if iv.From < from {
			from = iv.From
		}
		if iv.To > to {
			to = iv.To
		}
	}
	return from, to
}

// Lanes reports the distinct lane names in first-recorded order.
func (r *Recorder) Lanes() []string {
	if r == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, iv := range r.intervals {
		if !seen[iv.Lane] {
			seen[iv.Lane] = true
			out = append(out, iv.Lane)
		}
	}
	return out
}

// clampLine truncates s to at most max runes, so no rendered line —
// including the caller-supplied title — exceeds the timeline width.
func clampLine(s string, max int) string {
	if max < 1 {
		max = 1
	}
	runes := []rune(s)
	if len(runes) <= max {
		return s
	}
	return string(runes[:max])
}

// Render draws the timeline with `width` character buckets per lane.
// Within a bucket the state covering the most time wins. The title is
// clamped to the body line width, like every other line.
func (r *Recorder) Render(title string, width int) string {
	if width < 10 {
		width = 10
	}
	if r == nil || len(r.intervals) == 0 {
		return clampLine(title, width+3) + "\n(no trace recorded)\n"
	}
	t0, t1 := r.Span()
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	lanes := r.Lanes()
	sort.Strings(lanes)

	laneWidth := 0
	for _, l := range lanes {
		if len(l) > laneWidth {
			laneWidth = len(l)
		}
	}

	// Per-lane per-bucket occupancy.
	type cell map[State]sim.Cycles
	rows := map[string][]cell{}
	for _, l := range lanes {
		rows[l] = make([]cell, width)
	}
	bucket := func(t sim.Cycles) int {
		b := int(int64(t-t0) * int64(width) / int64(span))
		if b >= width {
			b = width - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	for _, iv := range r.intervals {
		row := rows[iv.Lane]
		b0, b1 := bucket(iv.From), bucket(iv.To-1)
		for b := b0; b <= b1; b++ {
			// Overlap of the interval with bucket b.
			bStart := t0 + sim.Cycles(int64(span)*int64(b)/int64(width))
			bEnd := t0 + sim.Cycles(int64(span)*int64(b+1)/int64(width))
			lo, hi := iv.From, iv.To
			if bStart > lo {
				lo = bStart
			}
			if bEnd < hi {
				hi = bEnd
			}
			if hi <= lo {
				continue
			}
			if row[b] == nil {
				row[b] = cell{}
			}
			row[b][iv.State] += hi - lo
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", clampLine(title, laneWidth+width+3))
	fmt.Fprintf(&sb, "%v .. %v  (#=busy ==mem .=sync)\n", t0, t1)
	for _, l := range lanes {
		line := make([]byte, width)
		for b, c := range rows[l] {
			ch := byte(' ')
			var best sim.Cycles
			// Fixed priority order so equal occupancies render the same
			// character on every run (map iteration order would not).
			for _, st := range [...]State{Busy, Mem, Sync} {
				if d := c[st]; d > best {
					best = d
					ch = byte(st)
				}
			}
			line[b] = ch
		}
		fmt.Fprintf(&sb, "%-*s |%s|\n", laneWidth, l, string(line))
	}
	return sb.String()
}
