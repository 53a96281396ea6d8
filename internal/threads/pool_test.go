package threads

import (
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

func TestPoolRunsRegions(t *testing.T) {
	m := twoNode(t)
	counts := make([]int, 8)
	m.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		p := NewPool(m, 8, HighLocality)
		for r := 0; r < 3; r++ {
			p.Region(main, func(th *machine.Thread, tid int) {
				counts[tid]++
				th.ComputeCycles(1000)
			})
		}
		p.Close()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for tid, c := range counts {
		if c != 3 {
			t.Fatalf("worker %d ran %d regions, want 3", tid, c)
		}
	}
}

func TestPoolRegionWaitsForAll(t *testing.T) {
	m := twoNode(t)
	var slowest sim.Cycles
	m.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		p := NewPool(m, 4, HighLocality)
		p.Region(main, func(th *machine.Thread, tid int) {
			th.ComputeCycles(int64(10_000 * (tid + 1)))
			if th.Now() > slowest {
				slowest = th.Now()
			}
		})
		if main.Now() < slowest {
			t.Error("Region returned before the slowest worker finished")
		}
		p.Close()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAmortizesSpawnCost(t *testing.T) {
	// §7 "lightweight threads": after the one-time pool spawn, each
	// region costs far less than a full fork-join.
	const regions = 10
	body := func(th *machine.Thread, tid int) { th.ComputeCycles(500) }

	m1 := twoNode(t)
	var forkTotal sim.Cycles
	m1.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		start := main.Now()
		for r := 0; r < regions; r++ {
			ForkJoin(main, 16, HighLocality, body)
		}
		forkTotal = main.Now() - start
	})
	if err := m1.Run(); err != nil {
		t.Fatal(err)
	}

	m2 := twoNode(t)
	var poolTotal sim.Cycles
	m2.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		p := NewPool(m2, 16, HighLocality)
		start := main.Now()
		for r := 0; r < regions; r++ {
			p.Region(main, body)
		}
		poolTotal = main.Now() - start
		p.Close()
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}

	ratio := float64(forkTotal) / float64(poolTotal)
	if ratio < 3 {
		t.Fatalf("pool should amortize spawns: fork-join %v vs pool %v (%.1fx)",
			forkTotal, poolTotal, ratio)
	}
	t.Logf("10 regions × 16 threads: fork-join %v, pool %v (%.1fx lighter)",
		forkTotal, poolTotal, ratio)
}

func TestPoolCloseIdempotentAndGuard(t *testing.T) {
	m := twoNode(t)
	m.Spawn("main", topology.MakeCPU(0, 0, 0), func(main *machine.Thread) {
		p := NewPool(m, 2, HighLocality)
		if len(p.workers) != 2 {
			t.Error("pool size wrong")
		}
		p.Close()
		p.Close() // idempotent
		defer func() {
			if recover() == nil {
				t.Error("Region after Close should panic")
			}
		}()
		p.Region(main, func(th *machine.Thread, tid int) {})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
