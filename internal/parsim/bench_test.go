package parsim

import (
	"testing"

	"spp1000/internal/machine"
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

// BenchmarkPDESRound measures the host cost of a coordinator round on
// the 128-thread cluster-barrier team (perfbench's parsim probe),
// reported as ns/round next to the events each round executes
// (events/round).
func BenchmarkPDESRound(b *testing.B) {
	run := barrierTeam(b, b.N)
	b.ResetTimer()
	c := run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.rounds), "ns/round")
	b.ReportMetric(float64(eventsProcessed(c))/float64(c.rounds), "events/round")
}
