package sim

import "testing"

// TestNegativeDelayClamped pins the documented clamp: a negative delay
// cannot move the monotonic virtual clock backwards — it degenerates to
// a yield at the current instant.
func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	var after Cycles
	k.Spawn("p", func(p *Proc) {
		p.Delay(100)
		p.Delay(-50)
		after = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 100 {
		t.Fatalf("clock after Delay(-50) = %v, want 100 (clamped, not rewound)", after)
	}
}

// TestNegativeDelayStillYields checks the clamped delay keeps the yield
// semantics of Delay(0): same-instant events scheduled earlier run
// before the Proc resumes.
func TestNegativeDelayStillYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(0, func() { order = append(order, "event") })
		p.Delay(-1)
		order = append(order, "proc")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v, want [event proc]", order)
	}
}

// TestProcWakeupsInterleaveWithCallbacks checks the direct-resume fast
// path keeps the (at, seq) total order with closure events: callbacks
// scheduled before the Proc's timed wake-up at the same instant fire
// first, and a subsequent zero delay re-enters the queue behind them.
func TestProcWakeupsInterleaveWithCallbacks(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.At(10, func() { order = append(order, "a") }) // seq before the wake-up
		p.Delay(10)                                     // wake-up at t=10, after "a" and "b"
		order = append(order, "proc")
		p.Delay(0)
		order = append(order, "proc2")
	})
	k.At(10, func() { order = append(order, "b") }) // seq 2: before everything the body schedules
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "a", "proc", "proc2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestHeapPopReleasesReferences guards the event-struct reuse: popped
// slots are zeroed so completed callbacks and procs are collectable
// while the backing array is reused.
func TestHeapPopReleasesReferences(t *testing.T) {
	k := NewKernel()
	ran := 0
	for i := 0; i < 100; i++ {
		k.At(Cycles(i), func() { ran++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	for _, e := range k.events[:cap(k.events)] {
		if e.fn != nil || e.proc != nil {
			t.Fatal("popped heap slot retains a reference")
		}
	}
}
