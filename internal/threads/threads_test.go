package threads

import (
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

func twoNode(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Hypernodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCPUForHighLocality(t *testing.T) {
	topo, _ := topology.New(2)
	// First 8 threads fill hypernode 0.
	for tid := 0; tid < 8; tid++ {
		if hn := CPUFor(topo, HighLocality, tid, 16).Hypernode(); hn != 0 {
			t.Fatalf("tid %d on hn%d, want hn0", tid, hn)
		}
	}
	for tid := 8; tid < 16; tid++ {
		if hn := CPUFor(topo, HighLocality, tid, 16).Hypernode(); hn != 1 {
			t.Fatalf("tid %d on hn%d, want hn1", tid, hn)
		}
	}
}

func TestCPUForUniform(t *testing.T) {
	topo, _ := topology.New(2)
	counts := map[int]int{}
	seen := map[topology.CPUID]bool{}
	for tid := 0; tid < 16; tid++ {
		cpu := CPUFor(topo, Uniform, tid, 16)
		counts[cpu.Hypernode()]++
		if seen[cpu] {
			t.Fatalf("cpu %v assigned twice", cpu)
		}
		seen[cpu] = true
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("uniform split = %v, want 8/8", counts)
	}
}

func TestForkJoinRunsAllBodies(t *testing.T) {
	m := twoNode(t)
	ran := make([]bool, 12)
	_, err := RunTeam(m, 12, HighLocality, func(th *machine.Thread, tid int) {
		ran[tid] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, ok := range ran {
		if !ok {
			t.Fatalf("thread %d never ran", tid)
		}
	}
}

func TestForkJoinLocalSlope(t *testing.T) {
	// Fig. 2: within one hypernode, each extra pair of threads costs
	// ≈10 µs.
	cost := func(n int) sim.Cycles {
		m := twoNode(t)
		el, err := RunTeam(m, n, HighLocality, func(th *machine.Thread, tid int) {})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	slope := (cost(8) - cost(2)).Micros() / 3 // three extra pairs
	if slope < 7 || slope > 13 {
		t.Fatalf("local fork-join pair slope = %.1f µs, want ≈10", slope)
	}
}

func TestForkJoinHypernodeBoundaryStep(t *testing.T) {
	// Fig. 2: ≈50 µs one-time penalty once a second hypernode is used.
	cost := func(n int) sim.Cycles {
		m := twoNode(t)
		el, err := RunTeam(m, n, HighLocality, func(th *machine.Thread, tid int) {})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	step := (cost(9) - cost(8)).Micros()
	slope := (cost(8) - cost(7)).Micros()
	if step-slope < 30 {
		t.Fatalf("hypernode-boundary step = %.1f µs over local slope %.1f, want ≈50 extra", step, slope)
	}
}

func TestForkJoinUniformCostsMore(t *testing.T) {
	run := func(place Placement) sim.Cycles {
		m := twoNode(t)
		el, err := RunTeam(m, 8, place, func(th *machine.Thread, tid int) {})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	if run(Uniform) <= run(HighLocality) {
		t.Fatal("uniform placement should cost more than high locality at 8 threads")
	}
}

func TestBarrierReleasesEveryone(t *testing.T) {
	m := twoNode(t)
	b := NewBarrier(m, 8, 0)
	after := make([]sim.Cycles, 8)
	_, err := RunTeam(m, 8, HighLocality, func(th *machine.Thread, tid int) {
		// Stagger arrivals.
		th.Delay(sim.Cycles(tid * 100))
		b.Wait(th)
		after[tid] = th.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone exits at or after the last arrival.
	var latestArrival sim.Cycles
	for _, at := range after {
		if at == 0 {
			t.Fatal("a thread never exited the barrier")
		}
		if at > latestArrival {
			latestArrival = at
		}
	}
}

func TestBarrierLIFOLocalRange(t *testing.T) {
	// Fig. 3: last-in/first-out ≈3.5 µs on one hypernode.
	m := twoNode(t)
	b := NewBarrier(m, 8, 0)
	_, err := RunTeam(m, 8, HighLocality, func(th *machine.Thread, tid int) {
		th.Delay(sim.Cycles(tid * 500))
		b.Wait(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	lifo, lilo := b.LastEpisode()
	if lifo.Micros() < 2 || lifo.Micros() > 6 {
		t.Fatalf("local LIFO = %.2f µs, want ≈3.5", lifo.Micros())
	}
	if lilo <= lifo {
		t.Fatalf("LILO (%v) must exceed LIFO (%v)", lilo, lifo)
	}
	// Fig. 3: ≈2 µs per released thread.
	perThread := (lilo - lifo).Micros() / 6
	if perThread < 1 || perThread > 4 {
		t.Fatalf("release cost per thread = %.2f µs, want ≈2", perThread)
	}
}

func TestBarrierCrossHypernodePenalty(t *testing.T) {
	lifoFor := func(n int, place Placement) sim.Cycles {
		m := twoNode(t)
		b := NewBarrier(m, n, 0)
		_, err := RunTeam(m, n, place, func(th *machine.Thread, tid int) {
			b.Wait(th) // align arrivals (warm episode)
			th.Delay(sim.Cycles((n - 1 - tid) * 700))
			b.Wait(th)
		})
		if err != nil {
			t.Fatal(err)
		}
		lifo, _ := b.LastEpisode()
		return lifo
	}
	local := lifoFor(8, HighLocality)
	global := lifoFor(16, HighLocality)
	extra := (global - local).Micros()
	if extra <= 0 || extra > 5 {
		t.Fatalf("second-hypernode LIFO penalty = %.2f µs, want ≈1", extra)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := twoNode(t)
	b := NewBarrier(m, 4, 0)
	counter := 0
	_, err := RunTeam(m, 4, HighLocality, func(th *machine.Thread, tid int) {
		for i := 0; i < 3; i++ {
			b.Wait(th)
			if tid == 0 {
				counter++
			}
			b.Wait(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 3 {
		t.Fatalf("counter = %d, want 3 (barrier must be reusable)", counter)
	}
}

func TestOSIntrusionOnSaturatedMachine(t *testing.T) {
	elapsed := func(n int) sim.Cycles {
		m := twoNode(t)
		el, err := RunTeam(m, n, HighLocality, func(th *machine.Thread, tid int) {
			th.ComputeCycles(1_000_000)
		})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	full := elapsed(16)   // saturated: OS steals from thread 0
	nearly := elapsed(15) // one CPU spare: no intrusion
	if full <= nearly {
		t.Fatalf("saturated run (%v) should exceed 15-thread run (%v) due to OS intrusion", full, nearly)
	}
}
