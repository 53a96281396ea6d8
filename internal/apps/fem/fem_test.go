package fem

import "testing"

func TestPaperMeshSizes(t *testing.T) {
	// Large dataset: 524 288 elements exactly (§5.2.2).
	if 2*LargeGrid[0]*LargeGrid[1] != 524288 {
		t.Fatalf("large grid gives %d elements", 2*LargeGrid[0]*LargeGrid[1])
	}
	// Small dataset: 92 160 elements exactly.
	if 2*SmallGrid[0]*SmallGrid[1] != 92160 {
		t.Fatalf("small grid gives %d elements", 2*SmallGrid[0]*SmallGrid[1])
	}
}

func TestRunShapeTargets(t *testing.T) {
	// Fig. 7 shape checks at 3 steps.
	r1, err := Run(SmallGrid, GatherScatter, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.2: 0.042 point updates/µs for the parallelizing compiler.
	if r1.PointUpdatesPerUs < 0.03 || r1.PointUpdatesPerUs > 0.065 {
		t.Errorf("coding-1 single-CPU rate = %.4f pt/µs, want ≈0.042", r1.PointUpdatesPerUs)
	}
	v1, err := Run(SmallGrid, VectorStyle, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.2: 0.072 point updates/µs for the vector-style coding.
	if v1.PointUpdatesPerUs < 0.055 || v1.PointUpdatesPerUs > 0.09 {
		t.Errorf("coding-2 single-CPU rate = %.4f pt/µs, want ≈0.072", v1.PointUpdatesPerUs)
	}
	if v1.PointUpdatesPerUs <= r1.PointUpdatesPerUs {
		t.Error("vector-style coding should be faster on one CPU")
	}
	// Non-monotonic scaling between 8 and 9 processors (Fig. 7).
	r8, err := Run(SmallGrid, GatherScatter, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Run(SmallGrid, GatherScatter, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Run(SmallGrid, GatherScatter, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r9.UsefulMflops >= r8.UsefulMflops {
		t.Errorf("expected the 8->9 dip: %v then %v useful Mflop/s", r8.UsefulMflops, r9.UsefulMflops)
	}
	if r16.UsefulMflops <= r8.UsefulMflops {
		t.Errorf("16 procs (%v) should recover past 8 (%v)", r16.UsefulMflops, r8.UsefulMflops)
	}
	// Good single-hypernode scaling.
	if eff := r8.UsefulMflops / r1.UsefulMflops / 8; eff < 0.8 {
		t.Errorf("8-CPU efficiency %.2f, want ≥0.8", eff)
	}
	// C90 reference line: ≈250 useful Mflop/s, above every 16-CPU
	// gather-scatter point.
	_, c90useful := C90Reference()
	if c90useful < 230 || c90useful > 270 {
		t.Errorf("C90 useful rate = %.0f, want ≈250", c90useful)
	}
}
