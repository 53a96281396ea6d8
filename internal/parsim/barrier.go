package parsim

import (
	"cmp"
	"fmt"
	"slices"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
	"spp1000/internal/trace"
)

// ClusterBarrier is the partitioned analogue of threads.Barrier: a
// barrier over a team spread across the cluster's hypernodes, built
// from node-local arrival counting plus cross-partition messages.
//
// Each arriving thread pays the barrier-entry bookkeeping and an
// uncached read-modify-write on its node's fragment of the distributed
// arrival counter, then parks on its thread's spin semaphore
// (machine.Thread.Spin). The last local arrival of each node reports
// to the combiner on hypernode 0, paying the uplink: crossbar leg, SCI
// packet inject/eject, the request and response ring hops, the remote
// directory lookup, and the semaphore cell update (hypernode 0 reports
// in place for free — its RMW was the combiner update). When every node has reported, the combiner releases
// the spinners hierarchically: the releasing update is supplied around
// the rings once, every node's copy landing within that revolution (the
// slowest downlink), so all nodes share one delivery base; each node's
// spinners then re-fetch through their own crossbar, the re-supply
// serializing within the node (threads.Barrier's refetch + serial
// re-supply arithmetic) but the per-node chains running in parallel.
// That per-node fan-out is the hierarchical release a 16-hypernode
// machine needs — and it is also what keeps the partitions
// phase-aligned, so the post-barrier compute of every node falls in the
// same windows. Release schedules travel back as one message per
// remote node at the shared base, which is at least one lookahead out
// (the slowest downlink is at minimum a full ring crossing).
//
// All combiner state lives on hypernode 0 and is mutated only by events
// executing on that node's kernel; node-local state is mutated only by
// its own node's events. That discipline is what keeps the partitions
// share-nothing within a window.
type ClusterBarrier struct {
	c     *Cluster
	nodes []*nodeBarrier
	// combiner state, hosted on (and only touched from) node 0.
	active   int // nodes with at least one participant
	arrivals []nodeArrival
}

// nodeBarrier is one node's share of the barrier state.
type nodeBarrier struct {
	node    *ClusterNode
	sema    topology.Space // node-local fragment of the arrival counter
	expect  int            // participants on this node
	arrived int
	waiters []*machine.Thread // parked, in arrival order; reused across episodes
}

// nodeArrival is one node's report to the combiner.
type nodeArrival struct {
	node  int
	at    sim.Cycles // combiner-side arrival time
	count int        // waiters to release on that node
}

// NewClusterBarrier allocates a barrier whose participant count on node
// i is counts[i] (len(counts) must equal the cluster's node count; the
// runners derive counts from the team's placement).
func NewClusterBarrier(c *Cluster, counts []int) (*ClusterBarrier, error) {
	if len(counts) != len(c.Nodes) {
		return nil, fmt.Errorf("parsim: barrier counts cover %d nodes, cluster has %d", len(counts), len(c.Nodes))
	}
	b := &ClusterBarrier{c: c}
	for i, n := range c.Nodes {
		b.nodes = append(b.nodes, &nodeBarrier{
			node:   n,
			sema:   n.M.Alloc(fmt.Sprintf("cbarrier.sema.hn%d", i), topology.NearShared, 0, 0),
			expect: counts[i],
		})
		if counts[i] > 0 {
			b.active++
		}
	}
	if b.active == 0 {
		return nil, fmt.Errorf("parsim: barrier needs at least one participant")
	}
	return b, nil
}

// Wait blocks the thread — which must run on node ni's machine — until
// every participant on every node has arrived.
func (b *ClusterBarrier) Wait(th *machine.Thread, ni int) {
	wait := th.Synchronize(func() { b.wait(th, ni) })
	th.M.Trace.Record(th.P.Name(), trace.Sync, th.Now()-wait, th.Now())
}

func (b *ClusterBarrier) wait(th *machine.Thread, ni int) {
	p := b.c.p
	nb := b.nodes[ni]

	g := th.M.Counters.Group("threads")
	g.Counter("barrier_waits").Inc()

	th.ComputeCycles(p.BarrierEnter)
	th.RMW(nb.sema, 0)
	nb.arrived++
	nb.waiters = append(nb.waiters, th)

	if nb.arrived == nb.expect {
		if ni == 0 {
			// Node 0's RMW was the combiner update itself.
			b.arrive(ni, nb.arrived)
		} else {
			hops := b.c.Topo.RingHops(ni, 0)
			up := p.CrossbarTransit + 2*p.RingPacketFixed + int64(2*hops)*p.RingHop +
				p.RemoteDirLookup + p.UncachedAccess
			count := nb.arrived
			nb.node.Part.Post(0, th.Now()+sim.Cycles(up), func() { b.arrive(ni, count) })
		}
	}
	sem, _ := th.Spin()
	sem.P(th.P)
}

// arrive runs on node 0's kernel: record one node's arrival and, when
// every active node is in, compute and dispatch the release fan-out.
func (b *ClusterBarrier) arrive(ni, count int) {
	now := b.c.Nodes[0].M.Now()
	b.arrivals = append(b.arrivals, nodeArrival{node: ni, at: now, count: count})
	if len(b.arrivals) < b.active {
		return
	}
	p := b.c.p
	arr := b.arrivals
	slices.SortStableFunc(arr, func(x, y nodeArrival) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.node, y.node))
	})

	b.nodes[0].node.M.Counters.Group("threads").Counter("barrier_episodes").Inc()

	// The releasing update circulates the rings once; every node's copy
	// lands by the slowest downlink, so all nodes share one delivery
	// base. Each node's spinners then pay the spin-detect refetch plus a
	// re-supply that serializes within the node (threads.Barrier's
	// arithmetic) — but the per-node chains run in parallel, which keeps
	// the released phases aligned across partitions.
	var maxDown sim.Cycles
	for _, a := range arr {
		if a.node == 0 {
			continue
		}
		hops := b.c.Topo.RingHops(0, a.node)
		down := sim.Cycles(p.CrossbarTransit + p.RingPacketFixed + int64(hops)*p.RingHop)
		if down > maxDown {
			maxDown = down
		}
	}
	base := now + maxDown
	for _, a := range arr {
		supply := sim.Cycles(0)
		rel := make([]sim.Cycles, a.count)
		for i := range rel {
			supply = threads.SpinRelease(p, base, supply)
			rel[i] = supply
		}
		nb := b.nodes[a.node]
		release := func() {
			k := nb.node.M.K
			for i, w := range nb.waiters {
				_, v := w.Spin()
				k.At(rel[i], v)
			}
			clear(nb.waiters)
			nb.waiters = nb.waiters[:0]
			nb.arrived = 0
		}
		if a.node == 0 {
			release()
		} else {
			// base = now + the slowest downlink, and any remote downlink
			// is at least a full ring crossing ≥ the lookahead, so the
			// schedule always travels legally; the first release on the
			// node is a refetch + re-supply past base.
			b.nodes[0].node.Part.Post(a.node, base, release)
		}
	}
	b.arrivals = arr[:0]
}
