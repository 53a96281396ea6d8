package sim

import (
	"runtime"
	"testing"
)

// TestProcsLeaveNoGoroutines checks that a Proc's coroutine ends with its
// body: a thousand Procs that park, wake each other and finish leave the
// goroutine count where it started.
func TestProcsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	ev := k.NewEvent("go")
	for i := 0; i < 1000; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Delay(Cycles(i))
			if i == 999 {
				ev.Set()
			}
			ev.Wait(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.live != 0 {
		t.Fatalf("live = %d after Run, want 0", k.live)
	}
	// At most: a goroutine an earlier test left exiting may finish
	// meanwhile, but no finished proc may keep one.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after 1000 finished procs", before, after)
	}
}

// TestProcPanicSurfacesFromRun checks that a panic in a Proc body reaches
// the caller of Run, which can recover it, instead of killing the
// process from a goroutine nobody can defer in.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("faulty", func(p *Proc) {
		p.Delay(5)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want boom", got)
	}
	if k.Now() != 5 {
		t.Fatalf("clock at panic = %v, want 5", k.Now())
	}
}
