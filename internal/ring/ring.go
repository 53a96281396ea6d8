// Package ring models the four parallel unidirectional SCI ring networks
// joining the hypernodes (paper §2.5). Functional unit i of every
// hypernode attaches to ring i, so a line homed on FU i of a remote
// hypernode is always reached over ring i. Each ring is a shared medium:
// a packet occupies the ring for its transit time, and concurrent packets
// queue — the contention term the paper flags as the compounding factor
// for a "more heavily burdened system".
package ring

import (
	"fmt"

	"spp1000/internal/counters"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// hooks are the optional PMU-style per-link counter handles, inert
// until AttachCounters.
type hooks struct {
	attached bool
	packets  [topology.NumRings]*counters.Counter
	busy     [topology.NumRings]*counters.Counter
	queue    [topology.NumRings]*counters.Counter
	hops     *counters.Histogram
}

// Network is the set of four rings of one machine.
type Network struct {
	topo   topology.Topology
	params topology.Params
	rings  [topology.NumRings]sim.Resource
	ctr    hooks
}

// AttachCounters mirrors ring traffic into the group, per link:
// r<i>.packets (packets injected), r<i>.busy_cycles (link service
// time), r<i>.queue_cycles (time packets waited behind earlier
// traffic), plus a machine-wide hops histogram of per-packet hop
// counts. A nil group detaches.
func (n *Network) AttachCounters(g *counters.Group) {
	n.ctr = hooks{attached: g != nil}
	for i := 0; i < topology.NumRings; i++ {
		n.ctr.packets[i] = g.Counter(fmt.Sprintf("r%d.packets", i))
		n.ctr.busy[i] = g.Counter(fmt.Sprintf("r%d.busy_cycles", i))
		n.ctr.queue[i] = g.Counter(fmt.Sprintf("r%d.queue_cycles", i))
	}
	n.ctr.hops = g.Histogram("hops")
}

// New returns an idle ring network.
func New(topo topology.Topology, params topology.Params) *Network {
	return &Network{topo: topo, params: params}
}

// LineSlotCycles is the ring occupancy of one extra cache-line-sized
// payload slot (≈600 MB/s SCI link bandwidth: 32 B ≈ 53 ns ≈ 5 cycles).
const LineSlotCycles = 5

// TransitCycles reports the unloaded one-way transit time of a packet
// from hypernode src to dst: injection/ejection handling plus per-hop
// propagation. Payload beyond one cache line adds line-sized ring slots.
func (n *Network) TransitCycles(src, dst, payloadBytes int) sim.Cycles {
	hops := n.topo.RingHops(src, dst)
	lines := (payloadBytes + topology.CacheLineBytes - 1) / topology.CacheLineBytes
	if lines < 1 {
		lines = 1
	}
	return sim.Cycles(n.params.RingPacketFixed + int64(hops)*n.params.RingHop + int64(lines-1)*LineSlotCycles)
}

// Send books a one-way packet on the given ring starting at now and
// returns its arrival time, including queueing behind earlier packets.
func (n *Network) Send(now sim.Cycles, ringIdx, src, dst, payloadBytes int) sim.Cycles {
	transit := n.TransitCycles(src, dst, payloadBytes)
	done := n.rings[ringIdx].Reserve(now, transit)
	if n.ctr.attached {
		n.ctr.packets[ringIdx].Inc()
		n.ctr.busy[ringIdx].Add(int64(transit))
		n.ctr.queue[ringIdx].Add(int64(done - now - transit))
		n.ctr.hops.Observe(int64(n.topo.RingHops(src, dst)))
	}
	return done
}

// RoundTrip books a request/response pair (request payloadBytes out,
// one cache line back) and returns the completion time.
func (n *Network) RoundTrip(now sim.Cycles, ringIdx, src, dst, payloadBytes int) sim.Cycles {
	arrive := n.Send(now, ringIdx, src, dst, payloadBytes)
	return n.Send(arrive, ringIdx, dst, src, topology.CacheLineBytes)
}
