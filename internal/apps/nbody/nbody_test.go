package nbody

import (
	"math"
	"testing"
)

func TestPlummerProperties(t *testing.T) {
	b := NewPlummer(5000, 3)
	if b.N() != 5000 {
		t.Fatalf("N = %d", b.N())
	}
	var totalM float64
	for i := 0; i < b.N(); i++ {
		totalM += b.M[i]
		r := math.Sqrt(b.X[i]*b.X[i] + b.Y[i]*b.Y[i] + b.Z[i]*b.Z[i])
		if r > 10.001 {
			t.Fatalf("body %d at radius %v, want clipped at 10", i, r)
		}
	}
	if math.Abs(totalM-1) > 1e-9 {
		t.Fatalf("total mass = %v, want 1", totalM)
	}
	// Central condensation: more than half the mass inside r=1
	// (Plummer a=1 encloses ~35%... with our clipping, check monotone
	// concentration instead: more bodies inside r=1 than in 1<r<2).
	in1, in2 := 0, 0
	for i := 0; i < b.N(); i++ {
		r := math.Sqrt(b.X[i]*b.X[i] + b.Y[i]*b.Y[i] + b.Z[i]*b.Z[i])
		if r < 1 {
			in1++
		} else if r < 2 {
			in2++
		}
	}
	if in1 < in2/2 {
		t.Fatalf("distribution not centrally condensed: %d inside r=1 vs %d in shell", in1, in2)
	}
}

func TestTreeCountsAndMass(t *testing.T) {
	b := NewPlummer(2000, 5)
	tr := Build(b)
	root := tr.nodes[0]
	if int(root.count) != b.N() {
		t.Fatalf("root count = %d, want %d", root.count, b.N())
	}
	if math.Abs(root.mass-1) > 1e-9 {
		t.Fatalf("root mass = %v, want 1", root.mass)
	}
	// Center of mass matches the direct computation.
	var cx, cy, cz float64
	for i := 0; i < b.N(); i++ {
		cx += b.M[i] * b.X[i]
		cy += b.M[i] * b.Y[i]
		cz += b.M[i] * b.Z[i]
	}
	if math.Abs(root.comX-cx) > 1e-9 || math.Abs(root.comY-cy) > 1e-9 || math.Abs(root.comZ-cz) > 1e-9 {
		t.Fatalf("root COM (%v,%v,%v) vs direct (%v,%v,%v)", root.comX, root.comY, root.comZ, cx, cy, cz)
	}
}

// Tree structural invariant: every internal node's count and mass equal
// the sum over children.
func TestTreeInternalConsistency(t *testing.T) {
	checkTreeConsistency(t, Build(NewPlummer(3000, 11)))
}

// checkTreeConsistency fails t unless every internal node's count and
// mass equal the sums over its children. An inline leaf counts one
// body of its body's mass.
func checkTreeConsistency(t *testing.T, tr *Tree) {
	t.Helper()
	for idx := range tr.nodes {
		nd := &tr.nodes[idx]
		if nd.body >= 0 {
			continue
		}
		var count int32
		var mass float64
		for _, c := range nd.children {
			switch {
			case c >= 0:
				count += tr.nodes[c].count
				mass += tr.nodes[c].mass
			case c < -1:
				count++
				mass += tr.bodies.M[leafBody(c)]
			}
		}
		if count != nd.count {
			t.Fatalf("node %d count %d != children sum %d", idx, nd.count, count)
		}
		if math.Abs(mass-nd.mass) > 1e-9 {
			t.Fatalf("node %d mass %v != children sum %v", idx, nd.mass, mass)
		}
	}
}

func TestForceMatchesDirectSum(t *testing.T) {
	b := NewPlummer(2000, 7)
	tr := Build(b)
	// With a tight opening angle the tree force approaches direct
	// summation (paper: "below a user supplied accuracy limit").
	var maxRel float64
	for i := 0; i < 50; i++ {
		ax, ay, az, _ := tr.Force(i, 0.3, 0.05)
		dx, dy, dz := DirectForce(b, i, 0.05)
		fm := math.Sqrt(dx*dx + dy*dy + dz*dz)
		em := math.Sqrt((ax-dx)*(ax-dx) + (ay-dy)*(ay-dy) + (az-dz)*(az-dz))
		if fm > 0 {
			rel := em / fm
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel > 0.02 {
		t.Fatalf("max relative force error = %v, want <2%% at theta=0.3", maxRel)
	}
}

func TestTighterThetaIsMoreAccurateAndCostlier(t *testing.T) {
	b := NewPlummer(4000, 9)
	tr := Build(b)
	var errTight, errLoose float64
	var workTight, workLoose int64
	for i := 0; i < 30; i++ {
		dx, dy, dz := DirectForce(b, i, 0.05)
		fm := math.Sqrt(dx*dx + dy*dy + dz*dz)
		at, _, _, st := tr.Force(i, 0.3, 0.05)
		al, _, _, sl := tr.Force(i, 1.0, 0.05)
		errTight += math.Abs(at-dx) / fm
		errLoose += math.Abs(al-dx) / fm
		workTight += st.Interactions
		workLoose += sl.Interactions
	}
	if workTight <= workLoose {
		t.Fatalf("theta=0.3 interactions (%d) should exceed theta=1.0 (%d)", workTight, workLoose)
	}
	if errTight >= errLoose {
		t.Fatalf("theta=0.3 error (%v) should be below theta=1.0 (%v)", errTight, errLoose)
	}
}

func TestCoincidentBodiesHandled(t *testing.T) {
	b := &Bodies{
		X: []float64{1, 1, 2}, Y: []float64{1, 1, 2}, Z: []float64{1, 1, 2},
		VX: make([]float64, 3), VY: make([]float64, 3), VZ: make([]float64, 3),
		M: []float64{0.3, 0.3, 0.4},
	}
	tr := Build(b) // must not recurse forever
	if math.Abs(tr.nodes[0].mass-1.0) > 1e-9 {
		t.Fatalf("root mass %v with coincident bodies", tr.nodes[0].mass)
	}
}

func TestSortMortonPreservesBodies(t *testing.T) {
	b := NewPlummer(1000, 13)
	var sumM, sumX float64
	for i := 0; i < b.N(); i++ {
		sumM += b.M[i]
		sumX += b.X[i]
	}
	SortMorton(b)
	var sumM2, sumX2 float64
	for i := 0; i < b.N(); i++ {
		sumM2 += b.M[i]
		sumX2 += b.X[i]
	}
	if math.Abs(sumM-sumM2) > 1e-9 || math.Abs(sumX-sumX2) > 1e-9 {
		t.Fatal("Morton sort lost bodies")
	}
	// Spatial locality: mean distance between neighbours should shrink.
	dist := func(bb *Bodies) float64 {
		var d float64
		for i := 1; i < bb.N(); i++ {
			dx := bb.X[i] - bb.X[i-1]
			dy := bb.Y[i] - bb.Y[i-1]
			dz := bb.Z[i] - bb.Z[i-1]
			d += math.Sqrt(dx*dx + dy*dy + dz*dz)
		}
		return d / float64(bb.N()-1)
	}
	sorted := dist(b)
	shuffled := NewPlummer(1000, 13)
	unsorted := dist(shuffled)
	if sorted >= unsorted {
		t.Fatalf("Morton sort should improve locality: %v vs %v", sorted, unsorted)
	}
}

func TestStepConservesMomentumApproximately(t *testing.T) {
	b := NewPlummer(1500, 17)
	var px0, py0, pz0 float64
	for i := 0; i < b.N(); i++ {
		px0 += b.M[i] * b.VX[i]
		py0 += b.M[i] * b.VY[i]
		pz0 += b.M[i] * b.VZ[i]
	}
	Step(b, 0.01, 0.5, 0.05)
	var px, py, pz float64
	for i := 0; i < b.N(); i++ {
		px += b.M[i] * b.VX[i]
		py += b.M[i] * b.VY[i]
		pz += b.M[i] * b.VZ[i]
	}
	// Monopole approximation breaks exact symmetry; drift must stay small
	// relative to the velocity scale (~0.1).
	drift := math.Abs(px-px0) + math.Abs(py-py0) + math.Abs(pz-pz0)
	if drift > 0.01 {
		t.Fatalf("momentum drift = %v over one step", drift)
	}
}

func TestWorkloadCounting(t *testing.T) {
	w := CountWorkload(4096, 64, 21)
	if w.N != 4096 || len(w.MicroBlocks) != blocks {
		t.Fatalf("workload shape: %+v", w)
	}
	perParticle := float64(w.TotalInteractions()) / 4096
	// Barnes–Hut at theta=0.7: hundreds of interactions per particle.
	if perParticle < 100 || perParticle > 2000 {
		t.Fatalf("interactions/particle = %v", perParticle)
	}
	if w.Flops() <= 0 {
		t.Fatal("flops must be positive")
	}
}

// Property: sampled workload counts scale superlinearly (N log N-ish)
// but far below N² as N doubles.
func TestWorkloadScalingProperty(t *testing.T) {
	w1 := CountWorkload(4096, 32, 1)
	w2 := CountWorkload(8192, 32, 1)
	ratio := float64(w2.TotalInteractions()) / float64(w1.TotalInteractions())
	if ratio < 1.9 || ratio > 3.5 {
		t.Fatalf("interaction growth for 2x particles = %.2f, want ≈2.2 (N log N)", ratio)
	}
}

func TestRunShapeTargets(t *testing.T) {
	w := CountWorkload(32768, 64, 1)
	r1, err := Run(w, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §5.3.2: single-processor rate 27.5 Mflop/s.
	if r1.Mflops < 20 || r1.Mflops > 35 {
		t.Errorf("single-CPU rate = %.1f Mflop/s, want ≈27.5", r1.Mflops)
	}
	r8a, err := Run(w, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r8b, err := Run(w, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8: 2–7% degradation across hypernodes.
	deg := 1 - r8b.Mflops/r8a.Mflops
	if deg < -0.01 || deg > 0.10 {
		t.Errorf("cross-hypernode degradation = %.1f%%, want 2-7%%", deg*100)
	}
	r16, err := Run(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp := r16.Mflops / r1.Mflops; sp < 10 || sp > 16 {
		t.Errorf("16-CPU speedup = %.1f, want ≈13-14 (384/27.5)", sp)
	}
	// Invalid proc count rejected.
	if _, err := Run(w, 3, 1, 1); err == nil {
		t.Error("procs=3 should be rejected (must divide 16)")
	}
}
