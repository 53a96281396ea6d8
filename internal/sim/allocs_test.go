package sim

import "testing"

// TestKernelFastPathZeroAllocsPerEvent pins the event loop's allocation
// contract: once the heap slice has warmed to its working capacity, the
// direct-resume cycle (pop → clock advance → resumeProc → Delay →
// atProc push) allocates nothing per event. The same property is
// enforced statically by simlint's allocfree analyzer over the
// //simlint:hotpath annotations in kernel.go and proc.go; this test is
// the dynamic witness, so a regression that sneaks past escape analysis
// (e.g. via the runtime rather than the compiler) still fails.
func TestKernelFastPathZeroAllocsPerEvent(t *testing.T) {
	const stop = Cycles(1 << 20)
	k := NewKernel()
	k.Spawn("ticker", func(p *Proc) {
		for p.Now() < stop {
			p.Delay(1)
		}
	})
	// Warm up: first events grow the heap slice and start the Proc.
	if err := k.RunUntil(1000); err != nil {
		t.Fatal(err)
	}

	next := Cycles(1000)
	allocs := testing.AllocsPerRun(100, func() {
		next += 100
		if err := k.RunUntil(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("kernel fast path allocates %.2f allocs per 100-event window, want 0", allocs)
	}

	// Drain so the Proc exits and Run verifies no deadlock.
	if err := k.RunUntil(stop); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.live != 0 {
		t.Fatalf("live = %d after drain, want 0", k.live)
	}
}
