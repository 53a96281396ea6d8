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

// BenchmarkAccessClass times one access per service class on a
// two-hypernode machine, walking lines as perfbench's memsys probe does:
// hit reads one warmed line over and over; local, hypernode and global
// take first touches of lines homed on the CPU's own functional unit,
// on another unit of its hypernode, or on the other hypernode. A fresh
// system (built untimed) serves every 8192 accesses, and its tally must
// show each of them served as the class named.
func BenchmarkAccessClass(b *testing.B) {
	topo, err := topology.New(2)
	if err != nil {
		b.Fatal(err)
	}
	p := topology.DefaultParams()
	cpu := topology.MakeCPU(0, 0, 0)
	const lines = 8192
	for _, c := range []struct {
		name   string
		host   int
		keep   func(line int) bool // nil: the one line 0, warmed first
		served func(memsys.Counters) int64
	}{
		{"hit", 0, nil, func(c memsys.Counters) int64 { return c.Hits }},
		{"local", 0, func(l int) bool { return l%topology.FUsPerNode == cpu.FU() }, func(c memsys.Counters) int64 { return c.LocalMisses }},
		{"hypernode", 0, func(l int) bool { return l%topology.FUsPerNode != cpu.FU() }, func(c memsys.Counters) int64 { return c.HypernodeMisses }},
		{"global", 1, func(int) bool { return true }, func(c memsys.Counters) int64 { return c.GlobalMisses }},
	} {
		addrs := []topology.Addr{0}
		if c.keep != nil {
			addrs = addrs[:0]
			for l := 0; len(addrs) < lines; l++ {
				if c.keep(l) {
					addrs = append(addrs, topology.Addr(l*topology.CacheLineBytes))
				}
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; {
				b.StopTimer()
				s := memsys.New(topo, p, 0)
				sp := s.Alloc("bench", topology.NearShared, c.host, 0)
				now := sim.Cycles(0)
				if c.keep == nil {
					now = s.Access(now, cpu, sp, addrs[0], false).Done
				}
				n := min(lines, b.N-done)
				b.StartTimer()
				for i := 0; i < n; i++ {
					now = s.Access(now, cpu, sp, addrs[i%len(addrs)], false).Done
				}
				done += n
				if got := c.served(s.TotalCounters()); got != int64(n) {
					b.Fatalf("%d of %d accesses served as %s", got, n, c.name)
				}
			}
		})
	}
}
