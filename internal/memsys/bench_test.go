package memsys_test

import (
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/memsys"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// benchAccess measures the full-system cost of one memory access — the
// per-event unit the counter subsystem must not tax. The off/on pair in
// BENCH_3.json bounds the disabled-path regression (≤2% ns/event, 0
// extra allocs) and records what enabling the PMU layer actually costs.
func benchAccess(b *testing.B, withCounters bool) {
	topo, err := topology.New(2)
	if err != nil {
		b.Fatal(err)
	}
	s := memsys.New(topo, topology.DefaultParams(), 4096)
	if withCounters {
		s.AttachCountersBase(counters.NewRegistry(), 0)
	}
	sp := s.Alloc("bench", topology.NearShared, 0, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	now := sim.Cycles(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk enough distinct lines to mix hits and every miss class.
		addr := topology.Addr((i % 8192) * topology.CacheLineBytes)
		rep := s.Access(now, cpu, sp, addr, i%16 == 0)
		now = rep.Done
	}
}

func BenchmarkAccessCountersOff(b *testing.B) { benchAccess(b, false) }

func BenchmarkAccessCountersOn(b *testing.B) { benchAccess(b, true) }
