package experiments

import (
	"context"
	"encoding/json"

	"spp1000/internal/apps/fem"
	"spp1000/internal/apps/nbody"
	"spp1000/internal/apps/pic"
	"spp1000/internal/apps/ppm"
	"spp1000/internal/microbench"
	"spp1000/internal/runner"
	"spp1000/internal/stats"
)

// Report is the machine-readable form of the reproduction: every paper
// artifact as structured data. The simulation is deterministic, so two
// runs with equal options marshal to identical bytes.
type Report struct {
	// Fig2: fork-join µs vs. threads.
	Fig2 struct {
		HighLocality *stats.Series `json:"highLocality"`
		Uniform      *stats.Series `json:"uniform"`
	} `json:"fig2"`
	// Fig3: barrier µs vs. threads (4 curves).
	Fig3 []*stats.Series `json:"fig3"`
	// Fig4: message round-trip µs vs. bytes.
	Fig4 struct {
		Local  *stats.Series `json:"local"`
		Global *stats.Series `json:"global"`
	} `json:"fig4"`
	// Tab1: the C90 reference rows.
	Tab1 []struct {
		Mesh      string  `json:"mesh"`
		Particles int     `json:"particles"`
		Mflops    float64 `json:"mflops"`
		Seconds   float64 `json:"seconds"`
	} `json:"tab1"`
	// Fig6: PIC results per (size, procs), shared then PVM.
	Fig6 []pic.Result `json:"fig6"`
	// Fig7: FEM results per (curve, procs).
	Fig7 []fem.Result `json:"fig7"`
	// Fig8: N-body results per (size, team shape).
	Fig8 []nbody.Result `json:"fig8"`
	// Tab2: PPM results.
	Tab2 []ppm.Result `json:"tab2"`
}

// BuildReport runs the paper artifacts and returns the structured form.
// Fig6, Fig7 and Fig8 hold exactly the results the text figures render
// from. The independent sections — and the sweep points within them —
// are dispatched through the host worker pool; every slice is assembled
// in the same order as a serial build, so the marshalled bytes are
// unchanged by parallelism.
func BuildReport(o Options) (*Report, error) {
	r := &Report{}
	for _, size := range []pic.Size{pic.Small, pic.Large} {
		sec, rate := pic.C90Reference(size, 500)
		r.Tab1 = append(r.Tab1, struct {
			Mesh      string  `json:"mesh"`
			Particles int     `json:"particles"`
			Mflops    float64 `json:"mflops"`
			Seconds   float64 `json:"seconds"`
		}{size.String(), size.Particles(), rate, sec})
	}
	ctx := context.Background()
	err := runner.Each(6, func(section int) error {
		var err error
		switch section {
		case 0:
			r.Fig2.HighLocality, r.Fig2.Uniform, err = microbench.ForkJoinSweep(2, 16)
		case 1:
			r.Fig3, err = microbench.BarrierSweep(2, 16)
		case 2:
			r.Fig4.Local, r.Fig4.Global, err = microbench.MessageSweep()
		case 3:
			r.Fig6, err = fig6Sweep(ctx, o)
		case 4:
			r.Fig7, err = fig7Sweep(ctx, o)
		case 5:
			r.Fig8, err = fig8Sweep(ctx, o)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.Tab2, err = ppm.Table2(o.AppSteps); err != nil {
		return nil, err
	}
	return r, nil
}

// JSON marshals the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
