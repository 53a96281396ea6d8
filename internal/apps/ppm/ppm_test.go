package ppm

import (
	"math"
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
)

func TestPrimConsRoundTrip(t *testing.T) {
	prop := func(r8, u8, v8, p8 uint8) bool {
		rho := 0.1 + float64(r8)/64
		u := (float64(u8) - 128) / 64
		v := (float64(v8) - 128) / 64
		p := 0.1 + float64(p8)/64
		c := consFromPrim(rho, u, v, p)
		r2, u2, v2, p2 := primFromCons(c)
		return math.Abs(r2-rho) < 1e-12 && math.Abs(u2-u) < 1e-12 &&
			math.Abs(v2-v) < 1e-12 && math.Abs(p2-p) < 1e-10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPPMFacesConstantField(t *testing.T) {
	aL, aR := ppmFaces(3, 3, 3, 3, 3)
	if aL != 3 || aR != 3 {
		t.Fatalf("constant field edges = %v,%v", aL, aR)
	}
}

func TestPPMFacesMonotone(t *testing.T) {
	// Edges must stay within the neighbouring cell averages (no new
	// extrema) for arbitrary smooth/discontinuous data.
	prop := func(vals [5]uint8) bool {
		a := [5]float64{}
		for i, v := range vals {
			a[i] = float64(v) / 16
		}
		aL, aR := ppmFaces(a[0], a[1], a[2], a[3], a[4])
		lo := math.Min(a[1], math.Min(a[2], a[3]))
		hi := math.Max(a[1], math.Max(a[2], a[3]))
		return aL >= lo-1e-12 && aL <= hi+1e-12 && aR >= lo-1e-12 && aR <= hi+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHLLFluxConsistency(t *testing.T) {
	// Equal states: HLL reduces to the physical flux.
	f := hllFlux(1, 0.5, -0.2, 2, 1, 0.5, -0.2, 2)
	want := physFlux(1, 0.5, -0.2, 2)
	for k := 0; k < NVars; k++ {
		if math.Abs(f[k]-want[k]) > 1e-12 {
			t.Fatalf("flux[%d] = %v, want %v", k, f[k], want[k])
		}
	}
	// Supersonic left-moving flow: upwind flux.
	f = hllFlux(1, -5, 0, 1, 1, -5, 0, 1)
	want = physFlux(1, -5, 0, 1)
	for k := 0; k < NVars; k++ {
		if math.Abs(f[k]-want[k]) > 1e-12 {
			t.Fatal("supersonic flux should be pure upwind")
		}
	}
}

func TestUniformFlowPreserved(t *testing.T) {
	g, err := NewGrid(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			g.Set(i, j, 1.3, 0.4, -0.2, 1.7)
		}
	}
	pc := NewPencil(g.Stride() + g.H + 2*Pad)
	for s := 0; s < 5; s++ {
		g.Step(0.4, pc)
	}
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			rho, u, v, p := g.At(i, j)
			if math.Abs(rho-1.3) > 1e-11 || math.Abs(u-0.4) > 1e-11 ||
				math.Abs(v+0.2) > 1e-11 || math.Abs(p-1.7) > 1e-10 {
				t.Fatalf("uniform flow disturbed at (%d,%d): %v %v %v %v", i, j, rho, u, v, p)
			}
		}
	}
}

func TestMassConservedPeriodic(t *testing.T) {
	g, _ := NewGrid(32, 32)
	for j := 0; j < 32; j++ {
		for i := 0; i < 32; i++ {
			dx := float64(i-16) / 8
			dy := float64(j-16) / 8
			g.Set(i, j, 1+0.5*math.Exp(-(dx*dx+dy*dy)), 0, 0, 1+math.Exp(-(dx*dx+dy*dy)))
		}
	}
	m0 := g.TotalMass()
	pc := NewPencil(48)
	for s := 0; s < 20; s++ {
		g.Step(0.4, pc)
	}
	if rel := math.Abs(g.TotalMass()-m0) / m0; rel > 1e-10 {
		t.Fatalf("mass drifted by %v", rel)
	}
}

// sodProfile runs a Sod shock tube along x and returns the density of
// zones [0, 128), the tube, with the interface at 64. The periodic grid
// is 256 zones wide and holds the tube's mirror image in [128, 256), so
// its wrap is uniform left state and the mirror interface at 192 is as
// far from the tube's ends as the interface at 64: within the test's
// steps no wave from either interface reaches the other half.
func sodProfile(t *testing.T, steps int) (*Grid, []float64) {
	t.Helper()
	g, err := NewGrid(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			if i < 64 || i >= 192 {
				g.Set(i, j, 1.0, 0, 0, 1.0)
			} else {
				g.Set(i, j, 0.125, 0, 0, 0.1)
			}
		}
	}
	pc := NewPencil(g.Stride() + g.H + 2*Pad)
	for s := 0; s < steps; s++ {
		g.Step(0.4, pc)
	}
	rho := make([]float64, 128)
	for i := range rho {
		r, _, _, _ := g.At(i, 4)
		rho[i] = r
	}
	return g, rho
}

func TestSodShockTube(t *testing.T) {
	g, rho := sodProfile(t, 30)
	// Physical bounds.
	for i, r := range rho {
		if r < 0.12 || r > 1.001 {
			t.Fatalf("density out of bounds at %d: %v", i, r)
		}
	}
	// The left state is still undisturbed, the right state partially.
	if math.Abs(rho[2]-1.0) > 1e-6 {
		t.Fatalf("left state disturbed: %v", rho[2])
	}
	if math.Abs(rho[125]-0.125) > 1e-6 {
		t.Fatalf("right state disturbed: %v", rho[125])
	}
	// A shock has moved right of the interface: density between the
	// initial states appears right of x=64.
	foundShock := false
	for i := 66; i < 120; i++ {
		if rho[i] > 0.2 && rho[i] < 0.6 {
			foundShock = true
			break
		}
	}
	if !foundShock {
		t.Fatal("no post-shock plateau found")
	}
	// y-invariance: the problem is 1-D, every row identical.
	for i := 0; i < g.W; i += 16 {
		r0, _, _, _ := g.At(i, 1)
		r1, _, _, _ := g.At(i, 6)
		if math.Abs(r0-r1) > 1e-12 {
			t.Fatalf("1-D problem became y-dependent at %d", i)
		}
	}
	// Roughly monotone decreasing from left to right (first-order
	// smearing; the start-up glitch at the initial discontinuity is
	// allowed a few percent).
	for i := 1; i < len(rho); i++ {
		if rho[i] > rho[i-1]+0.06 {
			t.Fatalf("density oscillation at %d: %v -> %v", i, rho[i-1], rho[i])
		}
	}
}

func TestBlastSymmetry(t *testing.T) {
	// A centered pressure blast on a symmetric grid must stay
	// mirror-symmetric in both axes through the split sweeps.
	n := 32
	g, _ := NewGrid(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			dx := float64(i) - float64(n-1)/2
			dy := float64(j) - float64(n-1)/2
			p := 0.1
			if dx*dx+dy*dy < 16 {
				p = 10
			}
			g.Set(i, j, 1, 0, 0, p)
		}
	}
	pc := NewPencil(n + 2*Pad)
	for s := 0; s < 12; s++ {
		g.Step(0.4, pc)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n/2; i++ {
			r1, u1, _, p1 := g.At(i, j)
			r2, u2, _, p2 := g.At(n-1-i, j)
			if math.Abs(r1-r2) > 1e-10 || math.Abs(p1-p2) > 1e-9 || math.Abs(u1+u2) > 1e-10 {
				t.Fatalf("x-mirror broken at (%d,%d): rho %v vs %v", i, j, r1, r2)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n/2; j++ {
			r1, _, v1, _ := g.At(i, j)
			r2, _, v2, _ := g.At(i, n-1-j)
			if math.Abs(r1-r2) > 1e-10 || math.Abs(v1+v2) > 1e-10 {
				t.Fatalf("y-mirror broken at (%d,%d)", i, j)
			}
		}
	}
}

// Property: random smooth initial states evolve without NaNs, negative
// densities/pressures, or mass drift.
func TestRandomSmoothStatesStayPhysical(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		g, _ := NewGrid(24, 16)
		// A few random Fourier modes on top of a quiescent state.
		type mode struct{ ax, ay, amp, phase float64 }
		var modes []mode
		for k := 0; k < 3; k++ {
			modes = append(modes, mode{
				ax:    float64(1 + r.Intn(3)),
				ay:    float64(1 + r.Intn(3)),
				amp:   0.05 + 0.15*r.Float64(),
				phase: r.Float64() * 2 * math.Pi,
			})
		}
		for j := 0; j < g.H; j++ {
			for i := 0; i < g.W; i++ {
				var s float64
				for _, md := range modes {
					s += md.amp * math.Sin(2*math.Pi*(md.ax*float64(i)/24+md.ay*float64(j)/16)+md.phase)
				}
				g.Set(i, j, 1+s, 0.2*s, -0.1*s, 1+s)
			}
		}
		m0 := g.TotalMass()
		pc := NewPencil(g.Stride() + g.H + 2*Pad)
		for step := 0; step < 10; step++ {
			g.Step(0.4, pc)
		}
		for j := 0; j < g.H; j++ {
			for i := 0; i < g.W; i++ {
				rho, u, v, p := g.At(i, j)
				if math.IsNaN(rho) || math.IsNaN(u) || math.IsNaN(v) || math.IsNaN(p) {
					return false
				}
				if rho <= 0 || p <= 0 || rho > 3 {
					return false
				}
			}
		}
		return math.Abs(g.TotalMass()-m0)/m0 < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("Table 2 has %d rows, want 10", len(res))
	}
	paper := []float64{29.9, 58.2, 118.8, 228.5, 23.8, 47.8, 95.9, 186.2, 29.9, 118.5}
	for i, r := range res {
		rel := r.Mflops/paper[i] - 1
		if rel < -0.25 || rel > 0.25 {
			t.Errorf("row %d (%v p=%d): %.1f Mflop/s vs paper %.1f (%.0f%% off)",
				i, r.Config, r.Procs, r.Mflops, paper[i], rel*100)
		}
	}
	// Structural facts: near-linear scaling, coarse tiles beat fine
	// tiles, the doubled grid runs at the same rate.
	if eff := res[3].Mflops / res[0].Mflops / 8; eff < 0.85 {
		t.Errorf("4x16 scaling efficiency at 8 procs = %.2f", eff)
	}
	if res[4].Mflops >= res[0].Mflops {
		t.Error("12x48 tiles should run below 4x16 tiles")
	}
	if r := res[9].Mflops / res[2].Mflops; r < 0.9 || r > 1.1 {
		t.Errorf("240x960 rate should match 120x480 at 4 procs: ratio %.2f", r)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{120, 480, 4, 16}, 7, 1); err == nil {
		t.Fatal("7 procs does not divide 64 tiles and should be rejected")
	}
}
