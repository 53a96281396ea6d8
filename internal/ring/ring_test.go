package ring

import (
	"testing"

	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

func network(t *testing.T, nodes int) *Network {
	topo, err := topology.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, topology.DefaultParams())
}

func TestTransitScalesWithHops(t *testing.T) {
	n := network(t, 8)
	one := n.TransitCycles(0, 1, 32)
	three := n.TransitCycles(0, 3, 32)
	if three <= one {
		t.Fatalf("3 hops (%d) should exceed 1 hop (%d)", three, one)
	}
	p := topology.DefaultParams()
	want := p.RingPacketFixed + p.RingHop
	if int64(one) != want {
		t.Fatalf("1-hop line transit = %d, want %d", one, want)
	}
}

func TestTransitWrapsAround(t *testing.T) {
	n := network(t, 4)
	// hn3 -> hn0 is one hop on a unidirectional ring.
	if n.TransitCycles(3, 0, 32) != n.TransitCycles(0, 1, 32) {
		t.Fatal("wraparound hop count wrong")
	}
}

func TestPayloadAddsSlots(t *testing.T) {
	n := network(t, 2)
	line := n.TransitCycles(0, 1, 32)
	page := n.TransitCycles(0, 1, 4096)
	if page <= line {
		t.Fatal("larger payloads must take longer")
	}
}

func TestContentionQueues(t *testing.T) {
	n := network(t, 2)
	a := n.Send(0, 0, 0, 1, 32)
	b := n.Send(0, 0, 0, 1, 32) // same ring, same instant
	if b != 2*a {
		t.Fatalf("second packet should queue: %d, want %d", b, 2*a)
	}
	c := n.Send(0, 1, 0, 1, 32) // different ring
	if c != a {
		t.Fatalf("other ring should be free: %d, want %d", c, a)
	}
}

func TestRoundTrip(t *testing.T) {
	n := network(t, 2)
	rt := n.RoundTrip(0, 0, 0, 1, 32)
	oneWay := n.TransitCycles(0, 1, 32)
	if rt != 2*oneWay {
		t.Fatalf("round trip = %d, want %d", rt, 2*oneWay)
	}
	if n.Packets() != 2 {
		t.Fatalf("packets = %d, want 2", n.Packets())
	}
}

func TestReset(t *testing.T) {
	n := network(t, 2)
	n.Send(0, 0, 0, 1, 32)
	n.Reset()
	if n.Busy(0) != 0 || n.Packets() != 0 {
		t.Fatal("reset should clear state")
	}
}

// Packets reports the number of packets sent.
func (n *Network) Packets() int64 { return n.packets }

// Busy reports accumulated service time on one ring.
func (n *Network) Busy(ringIdx int) sim.Cycles { return n.rings[ringIdx].Busy() }
