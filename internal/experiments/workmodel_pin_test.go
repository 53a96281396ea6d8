package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"spp1000/internal/apps/amr"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
)

// pinnedWorkModels are SHA-256 prefixes of the Result values the
// application work models produce. They were recorded before the cost
// formulas were last restructured and must never be edited: a change to
// how a work model is written has to leave every timed result as it was.
var pinnedWorkModels = map[string]string{
	"amr/p4":                "d2cef8596531f821",
	"amr/p16":               "9bb6ba0c76785c70",
	"nbody/dynamic/p1/hn1":  "dba52f3ce259aaab",
	"nbody/dynamic/p8/hn1":  "228fe22551845514",
	"nbody/dynamic/p16/hn2": "7bdf4be6a562a149",
	"nbody/dynamic/p32/hn4": "713eb92fb8ac6094",
	"nbody/dynamic/p64/hn8": "95532b1ead57329c",
	"nbody/static/p1/hn1":   "2d384c19a1522a9a",
	"nbody/static/p8/hn1":   "e94348fd65255b68",
	"nbody/static/p16/hn2":  "3734128ca59da60d",
	"nbody/static/p32/hn4":  "2c475c928d9d0845",
	"nbody/static/p64/hn8":  "86a7355175f982d9",
	"pic/pvm/p1":            "e248e1b823a73b3a",
	"pic/pvm/p9":            "73f994d61c5cd3d3",
	"pic/pvm/p16":           "9fcb26669b734871",
	"pic/shared/p1":         "9185c06a3e2c321b",
	"pic/shared/p9":         "396535d2a7605ebf",
	"pic/shared/p16":        "afb3dc327e7e0913",
	"ppm/table2a/p1":        "029fb2eee5ef4742",
	"ppm/table2a/p8":        "2c154387eb715798",
}

// workModelRuns names each pinned run and produces its Result, which is
// rendered with %#v: every field, floats in their shortest round-trip
// form, so equal text means equal bits (%v would call String, which
// rounds).
func workModelRuns() map[string]func() (any, error) {
	runs := map[string]func() (any, error){}
	w := nbody.CountWorkload(32768, 64, 1)
	for _, c := range []struct{ p, hn int }{{1, 1}, {8, 1}, {16, 2}, {32, 4}, {64, 8}} {
		c := c
		runs[fmt.Sprintf("nbody/static/p%d/hn%d", c.p, c.hn)] = func() (any, error) {
			return nbody.Run(w, c.p, c.hn, 3)
		}
		runs[fmt.Sprintf("nbody/dynamic/p%d/hn%d", c.p, c.hn)] = func() (any, error) {
			return nbody.RunDynamic(w, c.p, c.hn, 3)
		}
	}
	for _, p := range []int{1, 9, 16} {
		p := p
		runs[fmt.Sprintf("pic/shared/p%d", p)] = func() (any, error) { return pic.RunShared(pic.Small, p, 2) }
		runs[fmt.Sprintf("pic/pvm/p%d", p)] = func() (any, error) { return pic.RunPVM(pic.Small, p, 2) }
	}
	for _, p := range []int{4, 16} {
		p := p
		runs[fmt.Sprintf("amr/p%d", p)] = func() (any, error) {
			d, err := amr.New(4, 1)
			if err != nil {
				return nil, err
			}
			w := float64(4 * amr.BlockSize)
			d.SetRegion(func(x, y float64) (rho, u, v, pr float64) {
				if x > w/4 && x < 3*w/4 {
					return 1.0, 0, 0, 1.0
				}
				return 0.125, 0, 0, 0.1
			})
			return amr.Run(d, p, 5)
		}
	}
	for _, p := range []int{1, 8} {
		p := p
		runs[fmt.Sprintf("ppm/table2a/p%d", p)] = func() (any, error) { return ppm.Run(ppm.Table2A, p, 2) }
	}
	return runs
}

// TestWorkModelsPinned runs the tree code (static and self-scheduled),
// both PIC variants, AMR and PPM and compares each Result's digest with
// the one recorded for it.
func TestWorkModelsPinned(t *testing.T) {
	runs := workModelRuns()
	if len(runs) != len(pinnedWorkModels) {
		t.Errorf("%d runs, %d pinned digests", len(runs), len(pinnedWorkModels))
	}
	for name, run := range runs {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", r))))[:16]
		if want := pinnedWorkModels[name]; got != want {
			t.Errorf("%q: %q, // want %q", name, got, want)
		}
	}
}
