package parsim

import (
	"math"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/topology"
)

// clusterBarrierAllocs reports the heap allocations of one run that
// builds a cluster of nodes hypernodes, spawns perNode threads on each
// and passes a ClusterBarrier episodes times (serial, counters off).
func clusterBarrierAllocs(t *testing.T, nodes, perNode, episodes int) float64 {
	t.Helper()
	return testing.AllocsPerRun(1, func() {
		cl, err := NewCluster(nodes)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, nodes)
		for i := range counts {
			counts[i] = perNode
		}
		bar, err := NewClusterBarrier(cl, counts)
		if err != nil {
			t.Fatal(err)
		}
		for ni, n := range cl.Nodes {
			for j := 0; j < perNode; j++ {
				n.M.Spawn("t", topology.CPUID(j), func(th *machine.Thread) {
					for i := 0; i < episodes; i++ {
						bar.Wait(th, ni)
					}
				})
			}
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClusterBarrierEpisodeAllocs pins what a warm ClusterBarrier
// episode allocates on a 2-hypernode cluster: the per-node release
// schedule, its closure and a remote node's arrival message — a
// constant per node, the same with 2 threads per node as with 8. Each
// thread parks on its own spin semaphore and every waiter and arrival
// list is reused, so nothing scales with the threads. The per-episode
// figure is rounded to whole allocations: a handful of one-off set-up
// allocations can differ between two runs (the race detector's
// sync.Pool drops some puts), which must not read as a per-episode
// cost.
func TestClusterBarrierEpisodeAllocs(t *testing.T) {
	const nodes, warmup, extra, perNodeBound = 2, 16, 64, 4
	perEpisode := func(perNode int) int {
		warm := clusterBarrierAllocs(t, nodes, perNode, warmup)
		more := clusterBarrierAllocs(t, nodes, perNode, warmup+extra)
		return int(math.Round((more - warm) / extra))
	}
	few, many := perEpisode(2), perEpisode(8)
	t.Logf("allocs per episode: %d with 2 threads per node, %d with 8", few, many)
	if few != many {
		t.Errorf("an episode allocates %d with 2 threads per node but %d with 8, want no dependence on threads", few, many)
	}
	if many > perNodeBound*nodes {
		t.Errorf("an episode allocates %d, want at most %d per node (%d)", many, perNodeBound, perNodeBound*nodes)
	}
}
