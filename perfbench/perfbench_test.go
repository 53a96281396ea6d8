package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so tail must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q, v float64
		ok   bool
		why  string
	}{
		{19, 0, 0, false, "too few for a median with ten beyond"},
		{20, 0.5, 10, true, "median: ranks 11..20 lie beyond"},
		{99, 0.5, 50, true, "p90 would leave nine beyond"},
		{100, 0.9, 90, true, "p90 leaves exactly ten beyond"},
		{200, 0.95, 190, true, "p95 leaves ten, p99 two"},
		{500, 0.95, 475, true, "p99 would leave five beyond"},
		{999, 0.95, 950, true, "p99 would leave nine beyond"},
		{1000, 0.99, 990, true, "p99 leaves exactly ten beyond"},
		{10000, 0.999, 9990, true, "p99.9 leaves ten beyond"},
	} {
		q, v, ok := tail(seq(c.n))
		if ok != c.ok || q != c.q || v != c.v {
			t.Errorf("n=%d (%s): tail = (p%g, %g, %t), want (p%g, %g, %t)", c.n, c.why, q*100, v, ok, c.q*100, c.v, c.ok)
		}
	}
	// 0.9×500 is 450.00000000000006 in floating point; the rank is 450.
	if got := percentile(seq(500), 0.9); got != 450 {
		t.Errorf("p90 of 1..500 = %g, want 450", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// smoke runs a workload for one pass with a single set-up.
func smoke(t *testing.T, workload string, trace bool, pins map[string]string) (result, string, error) {
	t.Helper()
	var out strings.Builder
	res, err := run(config{
		workload: workload, seed: defaultSeed, trace: trace,
		dir: t.TempDir(), pins: pins, setups: 1, minPasses: 1,
	}, &out)
	return res, out.String(), err
}

// TestCorruptPinFailsRun: a pinned value that does not match the output
// fails the run instead of producing numbers.
func TestCorruptPinFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bigsim workload")
	}
	for _, name := range []string{"apps.pic128.mono", "sim.events"} {
		pins := pinsFor("bigsim", defaultSeed)
		if _, ok := pins[name]; !ok {
			t.Fatalf("%s is not pinned for the default seed", name)
		}
		pins[name] = "corrupt"
		_, _, err := smoke(t, "bigsim", false, pins)
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "pinned") {
			t.Errorf("corrupted pin %s: run error = %v, want a pinned-output mismatch naming it", name, err)
		}
	}
}

// TestSmoke runs one pass of each workload and checks that the JSON
// carries exactly the metrics BENCHMARK.json declares. The service run
// is traced twice: its deterministic counts must repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	decl := declared(t)
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"paper", false}, {"bigsim", false}, {"service", true}} {
		t.Run(c.workload, func(t *testing.T) {
			res, out, err := smoke(t, c.workload, c.trace, nil)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			want := decl.EndToEnd
			if c.trace {
				want = decl.PerLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("result correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if !c.trace {
				return
			}
			again, out, err := smoke(t, c.workload, true, nil)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, name := range []string{"sim.events", "sim.cycles", "mem.accesses", "mem.hits", "mem.local_misses",
				"mem.hypernode_misses", "mem.global_misses", "threads.forks", "threads.barrier_episodes", "ring.packets"} {
				if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b || a == 0 {
					t.Errorf("%s: traced runs counted %g and %g, want equal and non-zero", name, a, b)
				}
			}
		})
	}
}

type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

// declared reads the repository's BENCHMARK.json.
func declared(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode keeps BENCHMARK.json and the metric tables
// of this package in step.
func TestDeclarationMatchesCode(t *testing.T) {
	d := declared(t)
	same := func(kind string, decl []declMetric, code []metricSpec) {
		if len(decl) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(decl), len(code))
			return
		}
		for i, m := range code {
			if decl[i] != (declMetric{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, decl[i], m)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, code has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
