package experiments

import (
	"context"
	"fmt"
	"strings"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/pic"
	"spp1000/internal/runner"
	"spp1000/internal/stats"
	"spp1000/internal/topology"
)

// ScalePar sweeps the hypernode-partitioned (PDES) engine up to the
// full 128-CPU machine the paper's authors did not have: the PIC shared
// variant and the FEM gather-scatter coding, both on one share-nothing
// kernel per hypernode (internal/parsim). The rendering carries no
// host-side figures, only simulated results, so the golden suite pins
// it byte for byte.
func ScalePar(ctx context.Context, o Options) (string, error) {
	procs := []int{8, 16, 32, 64, 128}
	type point struct {
		pic pic.Result
		fem fem.Result
	}
	pts, err := runner.MapCtx(ctx, len(procs), func(i int) (point, error) {
		p := procs[i]
		var pt point
		var err error
		pt.pic, err = pic.RunSharedPar(pic.Small, p, o.PICSteps)
		if err != nil {
			return pt, err
		}
		pt.fem, err = fem.RunPar(fem.LargeGrid, fem.GatherScatter, p, o.AppSteps)
		return pt, err
	})
	if err != nil {
		return "", err
	}
	picT := &stats.Series{Name: "pic time(s)"}
	picR := &stats.Series{Name: "pic Mflop/s"}
	femR := &stats.Series{Name: "fem useful Mflop/s"}
	scale := 500.0 / float64(o.PICSteps)
	for i, p := range procs {
		picT.Add(float64(p), pts[i].pic.Seconds*scale)
		picR.Add(float64(p), pts[i].pic.Mflops)
		femR.Add(float64(p), pts[i].fem.UsefulMflops)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s", stats.Render(
		"Partitioned scaling: PIC small + FEM large to 128 CPUs (PIC times scaled to 500 steps)",
		"procs", "see columns", picT, picR, femR))
	fmt.Fprintf(&b, "engine: one kernel per hypernode, conservative lookahead %d cycles\n",
		topology.DefaultParams().InterNodeLookahead())
	return b.String(), nil
}
