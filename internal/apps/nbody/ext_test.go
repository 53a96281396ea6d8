package nbody

import "testing"

// Tests for the dynamic load-balancing extension (§7 future work).

func countedWorkload(t *testing.T) *Workload {
	t.Helper()
	return CountWorkload(32768, 64, 1)
}

func TestDynamicMatchesStaticWhenBalanced(t *testing.T) {
	w := countedWorkload(t)
	s, err := Run(w, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDynamic(w, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Low imbalance at 2 threads: dynamic within a few percent.
	ratio := d.Mflops / s.Mflops
	if ratio < 0.93 || ratio > 1.1 {
		t.Errorf("dynamic/static at 2 procs = %.3f, want ≈1", ratio)
	}
}

func TestDynamicBeatsStaticUnderImbalance(t *testing.T) {
	w := countedWorkload(t)
	imb, err := w.ImbalanceRatio(16)
	if err != nil {
		t.Fatal(err)
	}
	if imb <= 1.02 {
		t.Skipf("workload too balanced (%.3f) to exercise the effect", imb)
	}
	s, err := Run(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDynamic(w, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mflops <= s.Mflops {
		t.Errorf("dynamic (%v) should beat static (%v) at imbalance %.3f", d.Mflops, s.Mflops, imb)
	}
}

func TestImbalanceRatio(t *testing.T) {
	w := &Workload{N: 640, TreeNodes: 100, MicroBlocks: make([]int64, blocks)}
	for i := range w.MicroBlocks {
		w.MicroBlocks[i] = 100
	}
	r, err := w.ImbalanceRatio(16)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("uniform blocks imbalance = %v, want 1", r)
	}
	w.MicroBlocks[0] = 500 // one heavy block
	r, _ = w.ImbalanceRatio(blocks)
	if r <= 1 {
		t.Fatalf("skewed blocks imbalance = %v, want >1", r)
	}
	if _, err := w.ImbalanceRatio(3); err == nil {
		t.Fatal("procs=3 should be rejected")
	}
	zero := &Workload{MicroBlocks: make([]int64, blocks)}
	if r, _ := zero.ImbalanceRatio(4); r != 1 {
		t.Fatalf("zero workload imbalance = %v, want 1", r)
	}
}
