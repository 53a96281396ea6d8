package load

import (
	"sort"
	"strings"
	"testing"
)

const sampleSppd = `sppd_jobs_submitted_total 12
sppd_jobs_deduplicated_total 3
sppd_jobs_queued 0
sppd_uptime_seconds 0.750
bogus line without value
sppd_unparsable notanumber
`

func TestParseMetricsStripsPrefix(t *testing.T) {
	m := ParseMetrics(sampleSppd, SppdPrefix)
	if len(m) != 4 {
		t.Fatalf("parsed %d metrics (%v), want 4", len(m), m)
	}
	if m["jobs_submitted_total"] != 12 || m["jobs_deduplicated_total"] != 3 ||
		m["jobs_queued"] != 0 || m["uptime_seconds"] != 0.75 {
		t.Fatalf("parsed %v", m)
	}
	if full := ParseMetrics(sampleSppd, ""); full["sppd_jobs_submitted_total"] != 12 {
		t.Fatalf("empty prefix should keep full names: %v", full)
	}
}

func TestDelta(t *testing.T) {
	before := Metrics{"a": 10, "b": 5, "gone": 2}
	after := Metrics{"a": 17, "b": 5, "new": 4}
	d := after.Delta(before)
	want := Metrics{"a": 7, "b": 0, "new": 4, "gone": -2}
	if len(d) != len(want) {
		t.Fatalf("delta %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("delta[%s] = %v, want %v", k, d[k], v)
		}
	}
	names := d.SortedNames()
	if !sort.StringsAreSorted(names) || len(names) != 4 {
		t.Fatalf("SortedNames = %v", names)
	}
}

// A consistent tally/delta pair must reconcile green down every check.
func TestReconcileExact(t *testing.T) {
	tally := Tally{
		SubmitOK200:       30,
		SubmitAccepted202: 20,
		SubmitRejected503: 5,
		SubmitBad400:      10,
		DistinctAccepted:  18,
		Done:              12, Canceled: 3, Timeout: 3,
	}
	delta := Metrics{
		"jobs_submitted_total":    55, // 30+20+5; the ten 400s never reached Submit
		"jobs_rejected_total":     5,
		"jobs_deduplicated_total": 32, // 50 accepted - 18 distinct
		"jobs_done_total":         12,
		"jobs_failed_total":       0,
		"jobs_canceled_total":     3,
		"jobs_timeout_total":      3,
		"jobs_done_cached_total":  0,
		"cache_misses_total":      17, // deliberately unchecked
		"sim_cycles_total":        999999,
	}
	final := Metrics{"jobs_queued": 0, "jobs_running": 0}
	r := Reconcile(tally, delta, final)
	if !r.OK {
		t.Fatalf("reconcile failed:\n%s", r.Failures())
	}
	if len(r.Checks) != 11 {
		t.Fatalf("%d checks, want 11", len(r.Checks))
	}
}

// Every divergence — a drifted counter, a nonzero end gauge, a client
// inconsistency — must flip the verdict and name the failing line.
func TestReconcileCatchesDrift(t *testing.T) {
	tally := Tally{SubmitAccepted202: 4, DistinctAccepted: 4, Done: 4}
	delta := Metrics{
		"jobs_submitted_total": 4, "jobs_deduplicated_total": 0,
		"jobs_done_total": 4,
	}
	final := Metrics{"jobs_queued": 0, "jobs_running": 0}
	if r := Reconcile(tally, delta, final); !r.OK {
		t.Fatalf("baseline should pass:\n%s", r.Failures())
	}

	drifted := Metrics{
		"jobs_submitted_total": 5, "jobs_deduplicated_total": 0,
		"jobs_done_total": 4,
	}
	r := Reconcile(tally, drifted, final)
	if r.OK {
		t.Fatal("submitted drift passed")
	}
	if f := r.Failures(); !strings.Contains(f, "jobs_submitted_total") {
		t.Fatalf("failures = %q", f)
	}

	busy := Metrics{"jobs_queued": 1, "jobs_running": 0}
	if r := Reconcile(tally, delta, busy); r.OK {
		t.Fatal("nonzero end gauge passed")
	}

	bad := tally
	bad.Unexpected = 1
	if r := Reconcile(bad, delta, final); r.OK {
		t.Fatal("client-side unexpected passed")
	}

	unsettled := tally
	unsettled.Done = 3 // one distinct key never reached a terminal status
	if r := Reconcile(unsettled, Metrics{
		"jobs_submitted_total": 4, "jobs_deduplicated_total": 0, "jobs_done_total": 3,
	}, final); r.OK {
		t.Fatal("unsettled distinct key passed")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.999, 10}, {0.1, 1}, {1, 10}} {
		if got := Percentile(s, tc.q); got != tc.want {
			t.Fatalf("p%g = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty slice")
	}
	if got := Percentile([]float64{7}, 0.999); got != 7 {
		t.Fatalf("singleton p999 = %v", got)
	}
}

// The float-ceil regression: 0.9 × 500 = 450.00000000000006 in binary,
// so a naive ceil(q·n) lands on rank 451 and reports the wrong sample.
// Nearest-rank p90 of 500 samples is exactly the 450th (sorted[449]).
func TestPercentileFloatRankExact(t *testing.T) {
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(i + 1) // sample value == its 1-based rank
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.9, 450},   // the overshooting product
		{0.5, 250},   // 0.5×500 is exact in binary; still rank 250
		{0.999, 500}, // p999 of 500 must be an observed sample (the max)
		{0.99, 495},
		{1, 500},
		{0.001, 1},
	} {
		if got := Percentile(s, tc.q); got != tc.want {
			t.Fatalf("p%g of 500 = %v, want %v", tc.q*100, got, tc.want)
		}
	}
}

// An unsorted slice must be quietly sorted into a copy: the quantile is
// computed over order statistics, and the caller's slice stays intact.
func TestPercentileUnsortedInput(t *testing.T) {
	s := []float64{9, 1, 7, 3, 5, 10, 2, 8, 6, 4}
	orig := append([]float64(nil), s...)
	if got := Percentile(s, 0.9); got != 9 {
		t.Fatalf("p90 of unsorted = %v, want 9", got)
	}
	for i := range s {
		if s[i] != orig[i] {
			t.Fatalf("caller slice mutated at %d: %v", i, s)
		}
	}
}

// SortedNames returns the metric names of m in lexical order — report
// rendering must be deterministic.
func (m Metrics) SortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
