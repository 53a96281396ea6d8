package microbench

import (
	"testing"

	"spp1000/internal/stats"
	"spp1000/internal/threads"
)

func TestForkJoinSweepShape(t *testing.T) {
	hl, un, err := ForkJoinSweep(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(hl.Points) != 16 || len(un.Points) != 16 {
		t.Fatalf("sweep lengths: %d, %d", len(hl.Points), len(un.Points))
	}
	// Fig. 2 property 1: ≈10 µs per extra pair, high locality, 2..8.
	var local []stats.Point
	for _, p := range hl.Points {
		if p.X >= 2 && p.X <= 8 {
			local = append(local, p)
		}
	}
	slope := stats.Slope(local) * 2 // per pair
	if slope < 7 || slope > 13 {
		t.Errorf("high-locality pair slope = %.1f µs, want ≈10", slope)
	}
	// Fig. 2 property 2: ≈20 µs per pair, uniform, 2..16.
	var unif []stats.Point
	for _, p := range un.Points {
		if p.X >= 2 {
			unif = append(unif, p)
		}
	}
	uslope := stats.Slope(unif) * 2
	if uslope < 14 || uslope > 26 {
		t.Errorf("uniform pair slope = %.1f µs, want ≈20", uslope)
	}
	// Fig. 2 property 3: ≈50 µs jump at the hypernode boundary.
	y8, _ := hl.YAt(8)
	y9, _ := hl.YAt(9)
	y7, _ := hl.YAt(7)
	step := (y9 - y8) - (y8 - y7)
	if step < 30 || step > 75 {
		t.Errorf("boundary step = %.1f µs, want ≈50", step)
	}
	// Uniform is never cheaper than high locality beyond 1 thread.
	for n := 2.0; n <= 8; n++ {
		hy, _ := hl.YAt(n)
		uy, _ := un.YAt(n)
		if uy < hy {
			t.Errorf("uniform (%.1f) cheaper than high locality (%.1f) at n=%v", uy, hy, n)
		}
	}
}

func TestBarrierSweepShape(t *testing.T) {
	series, err := BarrierSweep(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	lifoHL, liloHL, lifoUn, liloUn := series[0], series[1], series[2], series[3]

	// Fig. 3: single-hypernode LIFO ≈3.5 µs.
	for n := 2.0; n <= 8; n++ {
		y, ok := lifoHL.YAt(n)
		if !ok || y < 2 || y > 6 {
			t.Errorf("LIFO high-locality at %v = %.2f µs, want ≈3.5", n, y)
		}
	}
	// Crossing to a second hypernode adds ≈1 µs to LIFO.
	y8, _ := lifoHL.YAt(8)
	y16, _ := lifoHL.YAt(16)
	if y16-y8 < 0.3 || y16-y8 > 5 {
		t.Errorf("LIFO cross-hypernode penalty = %.2f µs, want ≈1", y16-y8)
	}
	// LILO grows ≈2 µs per thread in the local regime.
	var rel []stats.Point
	for _, p := range liloHL.Points {
		if p.X >= 3 && p.X <= 8 {
			rel = append(rel, p)
		}
	}
	slope := stats.Slope(rel)
	if slope < 1 || slope > 4 {
		t.Errorf("LILO per-thread slope = %.2f µs, want ≈2", slope)
	}
	// LILO always ≥ LIFO.
	for _, pair := range [][2]*stats.Series{{lifoHL, liloHL}, {lifoUn, liloUn}} {
		for _, p := range pair[1].Points {
			lo, ok := pair[0].YAt(p.X)
			if ok && p.Y < lo {
				t.Errorf("LILO %.2f < LIFO %.2f at n=%v", p.Y, lo, p.X)
			}
		}
	}
}

func TestMessageSweepShape(t *testing.T) {
	local, global, err := MessageSweep()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4: ≈30 µs local, ≈70 µs global, ratio ≈2.3 below 8 KB.
	l1k, _ := local.YAt(1024)
	g1k, _ := global.YAt(1024)
	if l1k < 20 || l1k > 40 {
		t.Errorf("local RT at 1 KB = %.1f µs, want ≈30", l1k)
	}
	if g1k < 55 || g1k > 90 {
		t.Errorf("global RT at 1 KB = %.1f µs, want ≈70", g1k)
	}
	ratio := g1k / l1k
	if ratio < 1.8 || ratio > 3.0 {
		t.Errorf("global/local = %.2f, want ≈2.3", ratio)
	}
	// Near-constant below 8 KB; super-linear growth beyond.
	l8k, _ := local.YAt(8192)
	if l8k > l1k*1.5 {
		t.Errorf("local RT grows below the knee: %.1f vs %.1f", l8k, l1k)
	}
	l64k, _ := local.YAt(65536)
	if l64k < 3*l8k {
		t.Errorf("no super-linear growth past the knee: %.1f vs %.1f", l64k, l8k)
	}
}

func TestLatencyProbe(t *testing.T) {
	tb, err := LatencyProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("probe rows = %d, want 5", tb.Rows())
	}
	out := tb.Render()
	if out == "" {
		t.Fatal("empty probe table")
	}
}

func TestClassLadder(t *testing.T) {
	tb, err := ClassLadder()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("class ladder rows = %d, want 5", tb.Rows())
	}
	// Thread-private and node-private are local from both hypernodes;
	// the shared classes cost ring latency from the non-host side.
	// Columns: class, cold hn0, cold hn1, warm.
	if tb.Cell(0, 2) != tb.Cell(0, 1) {
		t.Errorf("thread-private should cost the same from both hypernodes: %s vs %s",
			tb.Cell(0, 1), tb.Cell(0, 2))
	}
	if tb.Cell(2, 2) == tb.Cell(2, 1) {
		t.Error("near-shared should cost more from the remote hypernode")
	}
}

func TestFalseSharingPenalty(t *testing.T) {
	shared, private, err := FalseSharing(200)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(shared) / float64(private)
	// §3.2: "marked performance gains just by making scalar variables
	// thread private" — the shared variant ping-pongs the line.
	if ratio < 3 {
		t.Fatalf("false-sharing penalty = %.1fx, want marked (>3x); shared %v private %v",
			ratio, shared, private)
	}
}

func TestContentionFlatOnFourRings(t *testing.T) {
	four, one, err := ContentionSweep(16384)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: little degradation with increased traffic — the four rings
	// keep the pairs independent.
	f1, _ := four.YAt(1)
	f4, _ := four.YAt(4)
	if f4 > f1*1.05 {
		t.Errorf("four-ring RT degraded %.1f -> %.1f µs with 4 pairs", f1, f4)
	}
	// On a single ring the pairs interfere.
	o1, _ := one.YAt(1)
	o4, _ := one.YAt(4)
	if o4 <= o1 {
		t.Errorf("single-ring RT should degrade: %.1f -> %.1f µs", o1, o4)
	}
	// Invalid pair counts rejected.
	if _, err := ContentionRoundTrip(64, 0, 1, false); err == nil {
		t.Error("0 pairs should be rejected")
	}
	if _, err := ContentionRoundTrip(64, 5, 1, false); err == nil {
		t.Error("5 pairs should be rejected")
	}
}

func TestBarrierCostUniformUsesBothNodes(t *testing.T) {
	// 2 uniform threads already cross hypernodes: LIFO must exceed the
	// 2-thread local value.
	lifoL, _, err := BarrierCost(2, 2, threads.HighLocality)
	if err != nil {
		t.Fatal(err)
	}
	lifoU, _, err := BarrierCost(2, 2, threads.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if lifoU <= lifoL {
		t.Fatalf("uniform 2-thread LIFO (%v) should exceed local (%v)", lifoU, lifoL)
	}
}
