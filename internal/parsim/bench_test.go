package parsim

import (
	"fmt"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
)

// BenchmarkClusterBarrierEpisode measures one ClusterBarrier episode of
// a 128-thread team on a 16-hypernode cluster, the partitioned 128-CPU
// configuration, run serially with counters off: node-local arrival,
// the arrival messages to the combiner, the release schedules back and
// every window the episode takes. Cluster construction is outside the
// timer; the team's fork and join is amortized over b.N episodes.
func BenchmarkClusterBarrierEpisode(b *testing.B) {
	const hn, n = 16, 128
	b.ReportAllocs()
	cl, err := NewCluster(hn)
	if err != nil {
		b.Fatal(err)
	}
	bar, err := cl.TeamBarrier(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := cl.RunTeam(n, func(th *machine.Thread, tid int) {
		for i := 0; i < b.N; i++ {
			bar.Wait(th, tid)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPDESRound measures the host cost of a coordinator round,
// reported as ns/round next to the events each round executes
// (events/round), at one and two workers.
//
//   - small is the 128-thread cluster-barrier team (perfbench's parsim
//     probe): a few events per partition per round, under the handoff
//     rule as it ships.
//   - heavy is the synthetic workload of TestHeavyRoundsHandOff on 16
//     partitions, whose Delays add up to N per round (heavy/evN; the
//     events/round metric adds the messages and the partitions' drift),
//     with the handoff threshold lowered to zero so that w2 hands every
//     multi-partition round to the workers. Where heavy/evN/w2 first
//     beats heavy/evN/w1 is this host's break-even, from which
//     handoffGrain is chosen.
func BenchmarkPDESRound(b *testing.B) {
	report := func(b *testing.B, c *Coordinator) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.rounds), "ns/round")
		b.ReportMetric(float64(eventsProcessed(c))/float64(c.rounds), "events/round")
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("small/w%d", w), func(b *testing.B) {
			SetWorkers(w)
			defer SetWorkers(0)
			run := barrierTeam(b, b.N)
			b.ResetTimer()
			report(b, run())
		})
	}
	for _, perPart := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("heavy/ev%d/w%d", 16*perPart, w), func(b *testing.B) {
				SetWorkers(w)
				defer SetWorkers(0)
				c := newHeavy(b, 16, perPart, b.N, func(int, sim.Cycles, byte) {})
				c.grain = 0
				b.ResetTimer()
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				report(b, c)
			})
		}
	}
}
