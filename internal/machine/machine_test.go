package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Hypernodes: 0}); err == nil {
		t.Fatal("0 hypernodes should fail")
	}
	if _, err := New(Config{Hypernodes: 17}); err == nil {
		t.Fatal("17 hypernodes should fail")
	}
	m, err := New(Config{Hypernodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.Topo.NumCPUs() != 128 {
		t.Fatalf("full machine has %d CPUs, want 128", m.Topo.NumCPUs())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on a bad config")
		}
	}()
	MustNew(Config{Hypernodes: -1})
}

func TestThreadReadWriteAdvanceTime(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	sp := m.Alloc("x", topology.ThreadPrivate, 0, 0)
	var missT, hitT sim.Cycles
	m.Spawn("t", topology.MakeCPU(0, 0, 0), func(th *Thread) {
		t0 := th.Now()
		th.Read(sp, 0)
		missT = th.Now() - t0
		t0 = th.Now()
		th.Read(sp, 0)
		hitT = th.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if missT <= hitT || hitT != sim.Cycles(m.P.CacheHit) {
		t.Fatalf("miss %v, hit %v", missT, hitT)
	}
}

func TestComputeSlowdown(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	var plain, slowed sim.Cycles
	m.Spawn("a", topology.MakeCPU(0, 0, 0), func(th *Thread) {
		t0 := th.Now()
		th.ComputeCycles(10000)
		plain = th.Now() - t0
		th.SetSlowdown(0.05)
		t0 = th.Now()
		th.ComputeCycles(10000)
		slowed = th.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if plain != 10000 || slowed != 10500 {
		t.Fatalf("plain %v, slowed %v; want 10000 and 10500", plain, slowed)
	}
}

func TestComputeZeroAndNegativeNoOp(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	m.Spawn("a", topology.MakeCPU(0, 0, 0), func(th *Thread) {
		t0 := th.Now()
		th.ComputeCycles(0)
		th.ComputeCycles(-5)
		if th.Now() != t0 {
			t.Error("zero/negative compute should not advance time")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentationCounters(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	sp := m.Alloc("x", topology.NearShared, 0, 0)
	var th0 *Thread
	th0 = m.Spawn("t", topology.MakeCPU(0, 0, 0), func(th *Thread) {
		th.ComputeCycles(777)
		th.Read(sp, 0)
		th.RMW(sp, 4096)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th0.Busy != 777 {
		t.Fatalf("busy = %v, want 777", th0.Busy)
	}
	if th0.MemStall <= 0 {
		t.Fatal("memory stall not recorded")
	}
}

func TestSpawnAtStartsLate(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	var started sim.Cycles
	m.SpawnAt(10*sim.CyclesPerMicro, "late", topology.MakeCPU(0, 0, 1), func(th *Thread) {
		started = th.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 10*sim.CyclesPerMicro {
		t.Fatalf("started at %v, want 10 µs", started)
	}
}

func TestThreadString(t *testing.T) {
	m := MustNew(Config{Hypernodes: 1})
	th := m.Spawn("worker", topology.MakeCPU(0, 1, 1), func(th *Thread) {})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := th.String()
	if !strings.Contains(s, "worker") || !strings.Contains(s, "hn0.fu1.cpu1") {
		t.Fatalf("thread string = %q", s)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() sim.Cycles {
		m := MustNew(Config{Hypernodes: 2})
		sp := m.Alloc("x", topology.FarShared, 0, 0)
		var end sim.Cycles
		for i := 0; i < 8; i++ {
			i := i
			m.Spawn("t", topology.CPUID(i*2), func(th *Thread) {
				for j := 0; j < 20; j++ {
					th.Read(sp, topology.Addr((i*20+j)*32))
					th.ComputeCycles(int64(37 * (j + 1)))
					th.Write(sp, topology.Addr(j*32))
				}
				end = th.Now()
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("non-deterministic: %v vs %v", first, again)
		}
	}
}

// A 128-CPU machine must not pay for cache capacity it has not
// touched: its 128 architectural caches hold 64 MB of slots when full.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := MustNew(Config{Hypernodes: 16})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("machine.New(hn16) allocated %.2f MB, want < 2 MB", float64(got)/(1<<20))
	}
}

// built keeps BenchmarkNew's result live so the build is not elided.
var built *Machine

func BenchmarkNew(b *testing.B) {
	for _, hn := range []int{1, 16} {
		b.Run(fmt.Sprintf("hn%d", hn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built = MustNew(Config{Hypernodes: hn})
			}
		})
	}
}

// MustNew is New but panics on configuration errors (for examples/tests).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}
