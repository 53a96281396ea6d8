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
