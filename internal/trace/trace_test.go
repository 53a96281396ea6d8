package trace

import (
	"strings"
	"testing"

	"spp1000/internal/sim"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record("a", Busy, 0, 100) // must not panic
	if r.Len() != 0 {
		t.Fatal("nil recorder should record nothing")
	}
	out := r.Render("empty", 40)
	if !strings.Contains(out, "no trace") {
		t.Fatalf("nil render = %q", out)
	}
}

func TestRecordAndSpan(t *testing.T) {
	r := New()
	r.Record("t0", Busy, 100, 300)
	r.Record("t1", Mem, 50, 150)
	r.Record("t0", Sync, 300, 500)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	from, to := r.Span()
	if from != 50 || to != 500 {
		t.Fatalf("span = %v..%v", from, to)
	}
	if lanes := r.Lanes(); len(lanes) != 2 || lanes[0] != "t0" {
		t.Fatalf("lanes = %v", lanes)
	}
}

func TestDegenerateIntervalIgnored(t *testing.T) {
	r := New()
	r.Record("t0", Busy, 100, 100)
	r.Record("t0", Busy, 100, 50)
	if r.Len() != 0 {
		t.Fatal("zero/negative intervals must be ignored")
	}
}

func TestTotals(t *testing.T) {
	r := New()
	r.Record("t0", Busy, 0, 100)
	r.Record("t0", Busy, 200, 250)
	r.Record("t0", Mem, 100, 130)
	tot := r.Totals()
	if tot["t0"][Busy] != 150 || tot["t0"][Mem] != 30 {
		t.Fatalf("totals = %v", tot["t0"])
	}
}

func TestRenderShape(t *testing.T) {
	r := New()
	// First half busy, second half sync.
	r.Record("worker", Busy, 0, 1000)
	r.Record("worker", Sync, 1000, 2000)
	out := r.Render("demo", 40)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "worker") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	lane := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "worker") {
			lane = line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		}
	}
	if len(lane) != 40 {
		t.Fatalf("lane width = %d, want 40", len(lane))
	}
	firstHalf := lane[:20]
	secondHalf := lane[20:]
	if strings.Count(firstHalf, "#") < 18 {
		t.Fatalf("first half should be busy: %q", firstHalf)
	}
	if strings.Count(secondHalf, ".") < 18 {
		t.Fatalf("second half should be sync: %q", secondHalf)
	}
}

func TestRenderMajorityWinsWithinBucket(t *testing.T) {
	r := New()
	// 70% busy / 30% mem inside the single bucket.
	r.Record("t", Busy, 0, 70)
	r.Record("t", Mem, 70, 100)
	out := r.Render("x", 10)
	// Every bucket covers 10 cycles; buckets 0-6 busy, 7-9 mem.
	if !strings.Contains(out, "#######===") {
		t.Fatalf("bucket majority wrong:\n%s", out)
	}
	_ = sim.Cycles(0)
}

func TestRenderClampsTinyWidth(t *testing.T) {
	r := New()
	r.Record("t", Busy, 0, 100)
	out := r.Render("x", 1)
	if !strings.Contains(out, "#") {
		t.Fatalf("clamped render missing data:\n%s", out)
	}
}

// Totals sums the time per (lane, state).
func (r *Recorder) Totals() map[string]map[State]sim.Cycles {
	out := map[string]map[State]sim.Cycles{}
	if r == nil {
		return out
	}
	for _, iv := range r.intervals {
		m := out[iv.Lane]
		if m == nil {
			m = map[State]sim.Cycles{}
			out[iv.Lane] = m
		}
		m[iv.State] += iv.To - iv.From
	}
	return out
}
