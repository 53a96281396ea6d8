package main

// The fixture suite runs the gate over the repository's real committed
// artifact history (../../BENCH_*.json) — the acceptance bar is that
// every real transition passes, with the BENCH_3→BENCH_4 Fig6PIC swing
// classified as host noise, while synthetically injected regressions
// on the same data fail.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spp1000/internal/load"
)

// realHistory loads the committed BENCH artifacts from the repo root.
func realHistory(t *testing.T) []benchPoint {
	t.Helper()
	benches, _, err := discover("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) < 4 {
		t.Fatalf("expected the committed BENCH_1/3/4/6 history, found %d artifacts", len(benches))
	}
	return benches
}

func failures(fs []finding) []finding {
	var out []finding
	for _, f := range fs {
		if f.Level == "fail" {
			out = append(out, f)
		}
	}
	return out
}

// The committed history must pass clean, and the documented Fig6PIC
// ~78→128 ms/op swing must be classified as host noise: its pair's
// suite median moved beyond the stability tolerance, so nothing in
// that pair may fail.
func TestRealHistoryPassesWithFig6PICAsHostNoise(t *testing.T) {
	benches := realHistory(t)
	fs := analyze(benches, nil, defaultTrendConfig())
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("real history failed the gate: %v", bad)
	}
	hostShift := false
	for _, f := range fs {
		if f.Kind == "host-shift" && f.Where == "BENCH_3→BENCH_4" && strings.Contains(f.Detail, "host noise") {
			hostShift = true
		}
	}
	if !hostShift {
		t.Fatalf("BENCH_3→BENCH_4 not classified as a host shift: %v", fs)
	}
	crossHost := false
	for _, f := range fs {
		if f.Kind == "incomparable-host" && f.Where == "BENCH_4→BENCH_6" {
			crossHost = true
		}
	}
	if !crossHost {
		t.Fatalf("BENCH_4→BENCH_6 CPU change not flagged incomparable: %v", fs)
	}
}

// clone deep-copies a benchPoint so fixtures can mutate it.
func clone(t *testing.T, p benchPoint) benchPoint {
	t.Helper()
	data, err := json.Marshal(p.Doc)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return benchPoint{Label: p.Label, N: p.N, Doc: doc}
}

// injectedPair names the transition from the last real artifact to the
// fabricated successor nextPoint appends.
func injectedPair(benches []benchPoint) string {
	return benches[len(benches)-1].Label + "→BENCH_99"
}

// nextPoint fabricates a same-host successor of the last real artifact
// and lets the caller inject a defect into it.
func nextPoint(t *testing.T, benches []benchPoint, mutate func(*benchDoc)) []benchPoint {
	t.Helper()
	last := benches[len(benches)-1]
	injected := clone(t, last)
	injected.Label = "BENCH_99"
	injected.N = 99
	mutate(&injected.Doc)
	return append(append([]benchPoint{}, benches...), injected)
}

// A single benchmark 3x slower on an otherwise byte-identical (and
// therefore perfectly stable) suite must fail the gate — this is the
// synthetic injected regression of the acceptance criteria.
func TestSyntheticNsRegressionFails(t *testing.T) {
	benches := realHistory(t)
	history := nextPoint(t, benches, func(doc *benchDoc) {
		for i := range doc.Benchmarks {
			if doc.Benchmarks[i].Name == "Fig6PIC" {
				doc.Benchmarks[i].NsPerOp *= 3
				// A genuinely slower benchmark also computes fewer
				// events/sec-per-core; scale it coherently so the ns
				// family is what trips.
				if v, ok := doc.Benchmarks[i].Metrics["events/sec-per-core"]; ok {
					doc.Benchmarks[i].Metrics["events/sec-per-core"] = v / 3
				}
			}
		}
	})
	bad := failures(analyze(history, nil, defaultTrendConfig()))
	if len(bad) == 0 {
		t.Fatal("injected 3x Fig6PIC regression passed the gate")
	}
	found := false
	for _, f := range bad {
		if f.Kind == "ns-regression" && strings.Contains(f.Bench, "Fig6PIC") && f.Where == injectedPair(benches) {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression misattributed: %v", bad)
	}
}

// A drifted sim-* metric is a semantic change and must fail even when
// timings are identical — and even across a CPU change.
func TestSyntheticSimChangeFails(t *testing.T) {
	benches := realHistory(t)
	history := nextPoint(t, benches, func(doc *benchDoc) {
		doc.CPU = "Some Other CPU @ 1.00GHz" // sim equality must not hide behind incomparable hosts
		for i := range doc.Benchmarks {
			for name := range doc.Benchmarks[i].Metrics {
				if strings.HasPrefix(name, "sim-") {
					doc.Benchmarks[i].Metrics[name] *= 1.01
				}
			}
		}
	})
	bad := failures(analyze(history, nil, defaultTrendConfig()))
	found := false
	for _, f := range bad {
		if f.Kind == "sim-change" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sim-metric drift passed the gate: %v", bad)
	}
}

// Doubled allocs/op must fail regardless of host comparability;
// allocation counts are deterministic per build.
func TestSyntheticAllocRegressionFails(t *testing.T) {
	benches := realHistory(t)
	history := nextPoint(t, benches, func(doc *benchDoc) {
		for i := range doc.Benchmarks {
			if doc.Benchmarks[i].AllocsPerOp != nil {
				doubled := *doc.Benchmarks[i].AllocsPerOp*2 + 20
				doc.Benchmarks[i].AllocsPerOp = &doubled
			}
		}
	})
	bad := failures(analyze(history, nil, defaultTrendConfig()))
	found := false
	for _, f := range bad {
		if f.Kind == "allocs-regression" {
			found = true
		}
	}
	if !found {
		t.Fatalf("doubled allocs/op passed the gate: %v", bad)
	}
}

// A whole-suite uniform slowdown (every benchmark x1.2) is a host
// shift, not nineteen regressions: the suite-stability gate must
// classify it as noise.
func TestUniformSlowdownIsHostShift(t *testing.T) {
	benches := realHistory(t)
	history := nextPoint(t, benches, func(doc *benchDoc) {
		for i := range doc.Benchmarks {
			doc.Benchmarks[i].NsPerOp *= 1.2
		}
	})
	fs := analyze(history, nil, defaultTrendConfig())
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("uniform slowdown produced failures: %v", bad)
	}
	found := false
	for _, f := range fs {
		if f.Kind == "host-shift" && f.Where == injectedPair(benches) {
			found = true
		}
	}
	if !found {
		t.Fatalf("uniform slowdown not classified as host shift: %v", fs)
	}
}

// LOAD artifacts gate on their internal invariants.
func TestLoadInvariantGate(t *testing.T) {
	ok := loadPoint{Label: "LOAD_8", N: 8, Doc: load.Result{
		Reconcile: load.Reconciliation{OK: true},
	}}
	if bad := failures(analyze(nil, []loadPoint{ok}, defaultTrendConfig())); len(bad) != 0 {
		t.Fatalf("clean load artifact failed: %v", bad)
	}

	broken := ok
	broken.Doc.Reconcile.OK = false
	broken.Doc.Tally.Unexpected = 3
	bad := failures(analyze(nil, []loadPoint{broken}, defaultTrendConfig()))
	if len(bad) != 2 {
		t.Fatalf("broken load artifact produced %v, want reconcile + unexpected failures", bad)
	}
}

// The variance-widened band: a benchmark with noisy history earns a
// band wider than the default; a quiet one keeps the default.
func TestBandWidensWithHistory(t *testing.T) {
	cfg := defaultTrendConfig()
	if b := bandFor(cfg, nil); b != cfg.Band {
		t.Fatalf("no history: band %v, want default %v", b, cfg.Band)
	}
	quiet := []float64{0.01, -0.01, 0.02}
	if b := bandFor(cfg, quiet); b != cfg.Band {
		t.Fatalf("quiet history: band %v, want default %v", b, cfg.Band)
	}
	noisy := []float64{0.3, -0.25, 0.28, -0.3}
	b := bandFor(cfg, noisy)
	if b <= cfg.Band {
		t.Fatalf("noisy history: band %v did not widen past %v", b, cfg.Band)
	}
	if math.IsNaN(b) || b > 4 {
		t.Fatalf("widened band %v out of sane range", b)
	}
}

// discover must order artifacts numerically (BENCH_10 after BENCH_9,
// not between _1 and _2) and ignore non-artifact files.
func TestDiscoverOrdersNumerically(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_9.json", "BENCH_10.json", "BENCH_2.json", "LOAD_8.json", "notes.txt"} {
		var body string
		if strings.HasPrefix(name, "BENCH") {
			body = `{"benchmarks":[]}`
		} else {
			body = `{"target":"x","prefix":"sppd_","mix":{},"stages":[],"classes":[],"tally":{},"reconcile":{"ok":true},"serverDelta":{}}`
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	benches, loads, err := discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, b := range benches {
		order = append(order, b.N)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 9 || order[2] != 10 {
		t.Fatalf("bench order %v, want [2 9 10]", order)
	}
	if len(loads) != 1 || loads[0].N != 8 || !loads[0].Doc.Reconcile.OK {
		t.Fatalf("loads %+v", loads)
	}
}
