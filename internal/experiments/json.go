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
	// Fig6: PIC results per (size, variant, procs).
	Fig6 []pic.Result `json:"fig6"`
	// Fig7: FEM results.
	Fig7 []fem.Result `json:"fig7"`
	// Fig8: N-body results.
	Fig8 []nbody.Result `json:"fig8"`
	// Tab2: PPM results.
	Tab2 []ppm.Result `json:"tab2"`
}

// BuildReport runs the paper artifacts and returns the structured form.
// The independent sections — and the sweep points within them — are
// dispatched through the host worker pool; every slice is assembled in
// the same order as a serial build, so the marshalled bytes are
// unchanged by parallelism.
func BuildReport(o Options) (*Report, error) {
	r := &Report{}
	err := runner.Each(6, func(section int) error {
		switch section {
		case 0:
			var err error
			r.Fig2.HighLocality, r.Fig2.Uniform, err = microbench.ForkJoinSweep(2, 16)
			return err
		case 1:
			var err error
			r.Fig3, err = microbench.BarrierSweep(2, 16)
			return err
		case 2:
			var err error
			r.Fig4.Local, r.Fig4.Global, err = microbench.MessageSweep()
			return err
		case 3:
			sizes := []pic.Size{pic.Small, pic.Large}
			procs := []int{1, 2, 4, 8, 16}
			pts, err := runner.Map(len(sizes)*len(procs), func(i int) ([2]pic.Result, error) {
				size, p := sizes[i/len(procs)], procs[i%len(procs)]
				rs, err := pic.RunShared(size, p, o.PICSteps)
				if err != nil {
					return [2]pic.Result{}, err
				}
				rp, err := pic.RunPVM(size, p, o.PICSteps)
				if err != nil {
					return [2]pic.Result{}, err
				}
				return [2]pic.Result{rs, rp}, nil
			})
			if err != nil {
				return err
			}
			for si, size := range sizes {
				sec, rate := pic.C90Reference(size, 500)
				r.Tab1 = append(r.Tab1, struct {
					Mesh      string  `json:"mesh"`
					Particles int     `json:"particles"`
					Mflops    float64 `json:"mflops"`
					Seconds   float64 `json:"seconds"`
				}{size.String(), size.Particles(), rate, sec})
				for pi := range procs {
					r.Fig6 = append(r.Fig6, pts[si*len(procs)+pi][0], pts[si*len(procs)+pi][1])
				}
			}
			return nil
		case 4:
			procs := []int{1, 2, 4, 8, 9, 12, 16}
			res, err := runner.Map(len(procs), func(i int) (fem.Result, error) {
				return fem.Run(fem.SmallGrid, fem.GatherScatter, procs[i], o.AppSteps)
			})
			if err != nil {
				return err
			}
			r.Fig7 = res
			return nil
		case 5:
			res, err := nbodySweep(context.TODO(), o, []nbodyConfig{{1, 1}, {8, 1}, {8, 2}, {16, 2}})
			if err != nil {
				return err
			}
			r.Fig8 = res
			return nil
		}
		return nil
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
