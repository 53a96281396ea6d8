package load

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// ResultSchemaVersion is the LOAD_n.json schema generation; bump it
// whenever a field changes meaning (docs/BENCHMARKS.md documents every
// version).
const ResultSchemaVersion = 1

// Result is one load run's report — the LOAD_n.json artifact. Every
// latency is in milliseconds; every throughput in operations per
// second of wall time.
type Result struct {
	// SchemaVersion identifies the field layout (ResultSchemaVersion);
	// Provenance is stamped by the caller (cmd/sppload), not by Run,
	// because the harness itself must stay clock- and process-free.
	SchemaVersion int         `json:"schemaVersion"`
	Provenance    *Provenance `json:"provenance,omitempty"`

	// Target and Prefix identify the daemon and the metric namespace
	// the run reconciled against.
	Target string `json:"target"`
	Prefix string `json:"prefix"`

	// The generator parameters: replaying with these reproduces the
	// exact op sequence.
	Mix     Mix     `json:"mix"`
	HotKeys int     `json:"hotKeys"`
	ZipfS   float64 `json:"zipfS"`
	Seed    uint64  `json:"seed"`

	// Stages is the concurrency ladder with measured throughput,
	// speedup, and efficiency per rung; SaturationOpsPerSec is the best
	// rung's throughput.
	Stages              []StageResult `json:"stages"`
	SaturationOpsPerSec float64       `json:"saturationOpsPerSec"`

	// Classes is the per-class latency percentile and outcome table.
	Classes []ClassStats `json:"classes"`

	// Tally is the client's book; Reconcile is the verdict of holding
	// it against the server's metric deltas; ServerDelta preserves the
	// raw integral deltas for post-hoc reading.
	Tally       Tally            `json:"tally"`
	Reconcile   Reconciliation   `json:"reconcile"`
	ServerDelta map[string]int64 `json:"serverDelta"`
}

// Provenance attributes a LOAD_n.json to the code and moment that
// produced it, mirroring the BENCH_n.json schema-v2 stamp.
type Provenance struct {
	// GitCommit is the repository HEAD at run time ("" outside a
	// checkout).
	GitCommit string `json:"gitCommit,omitempty"`
	// RunTimestamp is RFC 3339 UTC.
	RunTimestamp string `json:"runTimestamp,omitempty"`
	// GoVersion is runtime.Version() of the harness binary.
	GoVersion string `json:"goVersion,omitempty"`
}

// StageResult is one measured ladder rung.
type StageResult struct {
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	WallSeconds float64 `json:"wallSeconds"`
	OpsPerSec   float64 `json:"opsPerSec"`
	// Speedup is this rung's throughput over the first rung's (the
	// ladder convention starts at Workers=1, making this the classic
	// S(p) = T(1)/T(p) figure); Efficiency is Speedup/Workers. Both are
	// 0 when the anchor rung measured no throughput.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// finishStages fills the speedup/efficiency columns from the first
// rung's throughput anchor.
func finishStages(stages []StageResult) {
	if len(stages) == 0 || stages[0].OpsPerSec <= 0 {
		return
	}
	base := stages[0].OpsPerSec
	for i := range stages {
		stages[i].Speedup = stages[i].OpsPerSec / base
		if stages[i].Workers > 0 {
			stages[i].Efficiency = stages[i].Speedup / float64(stages[i].Workers)
		}
	}
}

// ClassStats is the latency distribution and outcome breakdown of one
// operation class over the whole run (all stages pooled).
type ClassStats struct {
	Class  string  `json:"class"`
	Ops    int     `json:"ops"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P90MS  float64 `json:"p90Ms"`
	P99MS  float64 `json:"p99Ms"`
	P999MS float64 `json:"p999Ms"`
	MaxMS  float64 `json:"maxMs"`
	// Outcomes counts ops by outcome label: HTTP status classes for
	// submits ("200" answered-from-books, "202" enqueued-or-joined,
	// "400", "503") and "unexpected" for contract violations.
	Outcomes map[string]int `json:"outcomes"`
}

// classStatsFrom computes the distribution of one class's latency
// samples (milliseconds).
func classStatsFrom(class string, samples []float64) ClassStats {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return ClassStats{
		Class:  class,
		Ops:    len(s),
		MeanMS: round3(sum / float64(len(s))),
		P50MS:  round3(Percentile(s, 0.50)),
		P90MS:  round3(Percentile(s, 0.90)),
		P99MS:  round3(Percentile(s, 0.99)),
		P999MS: round3(Percentile(s, 0.999)),
		MaxMS:  round3(s[len(s)-1]),
	}
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted slice: the smallest sample such that at least q of
// the mass is at or below it. Nearest-rank never interpolates, so a
// reported p999 is always a latency that actually happened. An unsorted
// slice is sorted into a copy first — callers should pre-sort, but a
// quantile of misordered data would be silently meaningless.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(sorted) {
		s := append([]float64(nil), sorted...)
		sort.Float64s(s)
		sorted = s
	}
	// ceil(q·n) computed in floats overshoots by one rank when q·n is an
	// exact integer that lands just above it in binary (0.9 × 500 =
	// 450.00000000000006 → rank 451), so back the product off by an
	// epsilon far below any meaningful quantile step before rounding up.
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// round3 trims a float to 3 decimals so report JSON stays readable
// (microsecond resolution on millisecond latencies).
func round3(v float64) float64 {
	return math.Round(v*1e3) / 1e3
}

// integralDelta keeps the integral-valued metric deltas (the counters
// and gauges; float rates like sim_cycles_per_wall_second and
// uptime_seconds are meaningless as deltas and are dropped).
func integralDelta(d Metrics) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range d {
		if v == math.Trunc(v) {
			out[name] = int64(v)
		}
	}
	return out
}

// WriteJSON renders the result as indented JSON (the LOAD_n.json
// artifact), stamping the schema version.
func (r *Result) WriteJSON(w io.Writer) error {
	r.SchemaVersion = ResultSchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
