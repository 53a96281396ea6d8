package parsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
)

// heavyLookahead is the synthetic workload's lookahead; each partition
// spreads its Delays for one window over it.
const heavyLookahead = 1200

// newHeavy builds a coordinator of parts partitions whose rounds carry
// many events: each partition's proc, once per window for rounds
// windows, posts a message to the next partition at the window's edge
// and then takes perPart Delays that add up to the lookahead (jittered
// by ±1 cycle, so the partitions drift apart and the horizons differ).
// note sees every proc step ('d') and every delivered message ('m') on
// the partition that executes it.
func newHeavy(tb testing.TB, parts, perPart, rounds int, note func(part int, at sim.Cycles, what byte)) *Coordinator {
	tb.Helper()
	kernels := make([]*sim.Kernel, parts)
	for i := range kernels {
		kernels[i] = sim.NewKernel()
	}
	c, err := New(heavyLookahead, kernels)
	if err != nil {
		tb.Fatal(err)
	}
	d := sim.Cycles(heavyLookahead / perPart)
	for i, k := range kernels {
		dst := (i + 1) % parts
		kd := kernels[dst]
		k.Spawn("heavy", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				c.Partition(i).Post(dst, p.Now()+heavyLookahead, func() { note(dst, kd.Now(), 'm') })
				for e := 0; e < perPart; e++ {
					note(i, p.Now(), 'd')
					p.Delay(d + sim.Cycles((e*7+i)%3) - 1)
				}
			}
		})
	}
	return c
}

// TestHeavyRoundsHandOff runs the synthetic heavy-round workload, whose
// rounds carry far more than handoffGrain events, and requires the
// workers to take rounds at -simpar 2 and 4 while every partition's
// trace stays byte-identical to the serial run.
func TestHeavyRoundsHandOff(t *testing.T) {
	const parts, perPart, rounds = 8, 256, 8
	if parts*perPart < 2*handoffGrain {
		t.Fatalf("rounds of about %d events do not exercise a handoff grain of %d", parts*perPart, handoffGrain)
	}
	run := func() (string, int64, int64) {
		logs := make([]strings.Builder, parts)
		c := newHeavy(t, parts, perPart, rounds, func(part int, at sim.Cycles, what byte) {
			fmt.Fprintf(&logs[part], "%c%d ", what, int64(at))
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var all strings.Builder
		for i := range logs {
			fmt.Fprintf(&all, "p%d: %s\n", i, logs[i].String())
		}
		return all.String(), eventsProcessed(c), c.handoffs
	}
	var base string
	var baseEvents int64
	withWorkers(t, []int{1, 2, 4}, func(w int) {
		trace, events, handoffs := run()
		if w == 1 {
			base, baseEvents = trace, events
			if handoffs != 0 {
				t.Fatalf("serial run made %d handoffs, want 0", handoffs)
			}
			return
		}
		if trace != base {
			t.Fatalf("workers=%d: trace diverged from serial", w)
		}
		if events != baseEvents {
			t.Fatalf("workers=%d: %d events, serial executed %d", w, events, baseEvents)
		}
		if handoffs == 0 {
			t.Fatalf("workers=%d: no round was handed to the workers", w)
		}
		t.Logf("workers=%d: %d events, %d handoffs", w, events, handoffs)
	})
	if baseEvents < parts*perPart*rounds {
		t.Fatalf("%d events executed, want at least %d", baseEvents, parts*perPart*rounds)
	}
}

// barrierTeam builds perfbench's parsim probe shape: a 128-thread team
// on 16 hypernodes that computes 1000 cycles and passes a cluster
// barrier, steps times. The returned run executes it and reports the
// coordinator it ran.
func barrierTeam(tb testing.TB, steps int) (run func() *Coordinator) {
	tb.Helper()
	const hn, n = 16, 128
	cl, err := NewCluster(hn)
	if err != nil {
		tb.Fatal(err)
	}
	bar, err := cl.TeamBarrier(n)
	if err != nil {
		tb.Fatal(err)
	}
	return func() *Coordinator {
		if _, err := cl.RunTeam(n, func(th *machine.Thread, tid int) {
			for s := 0; s < steps; s++ {
				th.ComputeCycles(1000)
				bar.Wait(th, tid)
			}
		}); err != nil {
			tb.Fatal(err)
		}
		return cl.Coord
	}
}

// TestBarrierTeamRunsInline requires the fine-grained cluster-barrier
// team to run every round inline at -simpar 2: its rounds carry a few
// events per partition, too few to pay for a handoff, so the run starts
// no worker goroutine and leaves the goroutine count where it was.
func TestBarrierTeamRunsInline(t *testing.T) {
	withWorkers(t, []int{2}, func(int) {
		run := barrierTeam(t, 10)
		before := runtime.NumGoroutine()
		c := run()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("goroutines: %d before Run, %d after", before, after)
		}
		if c.handoffs != 0 {
			t.Errorf("%d of %d rounds handed to the workers, want 0", c.handoffs, c.rounds)
		}
	})
}
