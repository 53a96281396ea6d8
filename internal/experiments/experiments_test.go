package experiments

import (
	"strings"
	"testing"
)

// Smoke tests: every experiment renders non-empty output with the
// expected landmarks at reduced scale.
func TestAllExperimentsRender(t *testing.T) {
	o := Quick()
	landmarks := map[string][]string{
		"fig2":    {"Fork-Join", "high locality", "uniform"},
		"fig3":    {"Barrier", "LIFO", "LILO"},
		"fig4":    {"Round Trip", "local", "global", "ratio"},
		"tab1":    {"C90", "294912", "1179648"},
		"fig6":    {"PIC", "shared", "pvm", "C90 reference"},
		"fig7":    {"FEM", "small1", "small2", "large", "C90"},
		"fig8":    {"N-body", "hypernode", "Mflop/s"},
		"tab2":    {"PPM", "4x16", "12x48", "240x960"},
		"ablate":  {"hardware", "buffer", "rings", "Contention"},
		"scale":   {"128", "tree code"},
		"classes": {"thread-private", "far-shared", "False sharing"},
		"amr":     {"AMR", "leaves", "zones saved"},
		"counters": {"Counter-derived", "global/local miss ratio",
			"barrier release invalidations", "Fig. 2 knee"},
	}
	for _, name := range append(append([]string{}, Names...), Extra...) {
		out, err := Run(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range landmarks[name] {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q", name, want)
			}
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Quick()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestJSONReport(t *testing.T) {
	o := Quick()
	r, err := BuildReport(o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2", "highLocality", "tab1", "mflops", "fig8", "tab2"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	if len(r.Fig6) != 24 || len(r.Tab2) != 10 {
		t.Fatalf("report shape: fig6=%d tab2=%d", len(r.Fig6), len(r.Tab2))
	}
	// Determinism: identical bytes on a second run.
	r2, err := BuildReport(o)
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := r2.JSON()
	if string(data) != string(data2) {
		t.Fatal("JSON report not deterministic")
	}
}

// The report's figure results are the ones the text figures plot:
// rendering them reproduces each figure byte for byte.
func TestJSONReportMatchesFigures(t *testing.T) {
	o := Quick()
	r, err := BuildReport(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int // result counts: the report's and the figure's
		render    func() string
	}{
		{"fig6", len(r.Fig6), 2 * len(fig6Sizes) * len(fig6Procs), func() string { return renderFig6(o, r.Fig6) }},
		{"fig7", len(r.Fig7), len(fig7Curves) * len(fig7Procs), func() string { return renderFig7(r.Fig7) }},
		{"fig8", len(r.Fig8), len(o.NBodySizes) * len(fig8Cfgs), func() string { return renderFig8(o, r.Fig8) }},
	} {
		if c.got != c.want {
			t.Errorf("%s: the report holds %d results, the figure plots %d", c.name, c.got, c.want)
			continue
		}
		want, err := Run(c.name, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.render(); got != want {
			t.Errorf("%s rendered from the JSON report differs from the figure:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	o := Quick()
	a, err := Run("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("experiment output is not deterministic")
	}
}
