package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"spp1000/internal/apps/nbody"
)

// Spec is one simulation job as the service layer sees it: which
// experiments to run and at what scale. Because every experiment is a
// pure deterministic function of its Spec (same program, same result,
// down to the cycle — see DESIGN.md), a Spec's canonical encoding is a
// sound content address: equal bytes ⇒ equal results, so results can be
// cached and concurrent duplicate submissions coalesced onto one run.
type Spec struct {
	// Experiments are the experiment ids to run, in order (from Names /
	// Extra). Thread counts, problem grids, and topology parameters are
	// part of each experiment's definition, so the id pins them.
	Experiments []string `json:"experiments"`
	// Options scales the suite (steps, problem sizes, seed).
	Options Options `json:"options"`
}

// Normalize validates the spec and returns a cleaned copy: names
// trimmed and checked against the experiment vocabulary, an empty list
// and N-body sizes too small to count rejected. Specs must be
// normalized before Canonical/Key so that " fig2" and "fig2" address
// the same cache entry.
func (s Spec) Normalize() (Spec, error) {
	if len(s.Experiments) == 0 {
		return Spec{}, fmt.Errorf("spec: no experiments selected")
	}
	for _, n := range s.Options.NBodySizes {
		if n < nbody.MinBodies {
			return Spec{}, fmt.Errorf("spec: N-body size %d is below the minimum of %d bodies (one per microblock)", n, nbody.MinBodies)
		}
	}
	out := s
	out.Experiments = make([]string, len(s.Experiments))
	for i, raw := range s.Experiments {
		name := strings.TrimSpace(raw)
		if !Known(name) {
			return Spec{}, fmt.Errorf("spec: unknown experiment %q (have %v and %v)", name, Names, Extra)
		}
		out.Experiments[i] = name
	}
	return out, nil
}

// specVersion tags the canonical encoding. Bump it whenever the
// encoding, the Options fields, or the simulated machine's architected
// parameters change meaning, so stale cache entries can never be
// confused with fresh ones.
const specVersion = "spp-spec-v1"

// Canonical renders the spec as deterministic bytes: a fixed version
// line followed by every configuration field in a fixed order, one
// `key=value` line each. Integer fields are rendered exactly and each
// value is terminated by a newline, so distinct configurations can
// never collide and identical configurations always produce identical
// bytes regardless of how the Spec was built (struct literal, JSON,
// flags). This is the content-address preimage for the result cache.
//
// Every field of Options appears here; TestCanonicalCoversOptions
// enforces that a new Options field cannot be added without extending
// this encoding.
func (s Spec) Canonical() []byte {
	var b strings.Builder
	b.WriteString(specVersion)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "exp=%s\n", strings.Join(s.Experiments, ","))
	fmt.Fprintf(&b, "picsteps=%d\n", s.Options.PICSteps)
	b.WriteString("nbodysizes=")
	for i, n := range s.Options.NBodySizes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "nbodysample=%d\n", s.Options.NBodySample)
	fmt.Fprintf(&b, "appsteps=%d\n", s.Options.AppSteps)
	fmt.Fprintf(&b, "seed=%d\n", s.Options.Seed)
	return []byte(b.String())
}

// Key is the content address: the hex SHA-256 of the canonical
// encoding. It doubles as the job id in the sppd API.
func (s Spec) Key() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}
