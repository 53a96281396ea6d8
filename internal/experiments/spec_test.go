package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCanonicalDeterministic is the cache-key correctness property:
// identical configurations always marshal to identical bytes, however
// the Spec was constructed.
func TestCanonicalDeterministic(t *testing.T) {
	a := Spec{Experiments: []string{"fig2", "fig6"}, Options: Defaults()}
	b := Spec{Experiments: []string{"fig2", "fig6"}, Options: Defaults()}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("identical specs encode differently:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	if a.Key() != b.Key() {
		t.Fatalf("identical specs hash differently: %s vs %s", a.Key(), b.Key())
	}

	// A JSON round trip (how specs arrive over the sppd wire) must land
	// on the same canonical bytes.
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var c Spec
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), c.Canonical()) {
		t.Fatalf("JSON round trip changed the canonical bytes:\n%q\n%q", a.Canonical(), c.Canonical())
	}
}

// TestCanonicalDistinguishesParams: any change to any configuration
// field must change the key — distinct seeds/params never collide.
func TestCanonicalDistinguishesParams(t *testing.T) {
	base := Spec{Experiments: []string{"fig2"}, Options: Defaults()}
	variants := map[string]Spec{}
	add := func(name string, mut func(*Spec)) {
		s := Spec{Experiments: append([]string{}, base.Experiments...), Options: base.Options}
		s.Options.NBodySizes = append([]int{}, base.Options.NBodySizes...)
		mut(&s)
		variants[name] = s
	}
	add("exp", func(s *Spec) { s.Experiments = []string{"fig3"} })
	add("exp-order", func(s *Spec) { s.Experiments = []string{"fig6", "fig2"} })
	add("exp-extra", func(s *Spec) { s.Experiments = []string{"fig2", "fig3"} })
	add("picsteps", func(s *Spec) { s.Options.PICSteps++ })
	add("nbodysizes", func(s *Spec) { s.Options.NBodySizes[0]++ })
	add("nbodysizes-len", func(s *Spec) { s.Options.NBodySizes = s.Options.NBodySizes[:2] })
	add("nbodysample", func(s *Spec) { s.Options.NBodySample++ })
	add("appsteps", func(s *Spec) { s.Options.AppSteps++ })
	add("seed", func(s *Spec) { s.Options.Seed++ })

	seen := map[string]string{base.Key(): "base"}
	for name, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q (key %s)", name, prev, k)
		}
		seen[k] = name
	}

	// Distinct seeds across a wide range never collide pairwise.
	keys := map[string]uint64{}
	for seed := uint64(0); seed < 500; seed++ {
		s := base
		s.Options.Seed = seed
		k := s.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("seed %d collides with seed %d", seed, prev)
		}
		keys[k] = seed
	}
}

// TestCanonicalCoversOptions pins the canonical encoding to the Options
// struct: every field must appear as its own line, so adding a field to
// Options without extending Canonical fails here instead of silently
// aliasing distinct configurations onto one cache entry.
func TestCanonicalCoversOptions(t *testing.T) {
	lines := strings.Split(strings.TrimRight(string(DefaultSpec().Canonical()), "\n"), "\n")
	// version line + exp line + one line per Options field
	want := 2 + reflect.TypeOf(Options{}).NumField()
	if len(lines) != want {
		t.Fatalf("canonical encoding has %d lines, want %d (one per Options field plus version and exp):\n%s",
			len(lines), want, strings.Join(lines, "\n"))
	}
	if lines[0] != specVersion {
		t.Fatalf("first line %q, want version tag %q", lines[0], specVersion)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "=") {
			t.Fatalf("line %q is not key=value", l)
		}
	}
}

func TestSpecNormalize(t *testing.T) {
	s := Spec{Experiments: []string{" fig2", "tab2 "}, Options: Quick()}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Experiments[0] != "fig2" || n.Experiments[1] != "tab2" {
		t.Fatalf("Normalize did not trim: %v", n.Experiments)
	}
	if _, err := (Spec{Experiments: []string{"nope"}}).Normalize(); err == nil {
		t.Fatal("unknown experiment should fail Normalize")
	}
	if _, err := (Spec{}).Normalize(); err == nil {
		t.Fatal("empty experiment list should fail Normalize")
	}
}

func TestResolveNames(t *testing.T) {
	all, err := ResolveNames("all")
	if err != nil || len(all) != len(Names) {
		t.Fatalf("ResolveNames(all) = %v, %v", all, err)
	}
	everything, err := ResolveNames("everything")
	if err != nil || len(everything) != len(Names)+len(Extra) {
		t.Fatalf("ResolveNames(everything) = %v, %v", everything, err)
	}
	got, err := ResolveNames(" fig6 , tab2")
	if err != nil || len(got) != 2 || got[0] != "fig6" || got[1] != "tab2" {
		t.Fatalf("ResolveNames list = %v, %v", got, err)
	}
	for _, bad := range []string{"", "fig2,", "nope", "fig2,,tab2"} {
		if _, err := ResolveNames(bad); err == nil {
			t.Fatalf("ResolveNames(%q) should error", bad)
		}
	}
}

// DefaultSpec is the full paper reproduction at paper scale.
func DefaultSpec() Spec {
	return Spec{Experiments: append([]string{}, Names...), Options: Defaults()}
}
