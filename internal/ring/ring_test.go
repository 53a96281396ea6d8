package ring

import (
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

func network(t *testing.T, nodes int) *Network {
	topo, err := topology.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, topology.DefaultParams())
}

// counted attaches a fresh counter group to n and returns a reader of
// the PMU counters production reports for it.
func counted(n *Network) func(name string) int64 {
	reg := counters.NewRegistry()
	n.AttachCounters(reg.Group("ring"))
	return func(name string) int64 { return reg.Snapshot().Counter("ring", name) }
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
	count := counted(n)
	a := n.Send(0, 0, 0, 1, 32)
	b := n.Send(0, 0, 0, 1, 32) // same ring, same instant
	if b != 2*a {
		t.Fatalf("second packet should queue: %d, want %d", b, 2*a)
	}
	c := n.Send(0, 1, 0, 1, 32) // different ring
	if c != a {
		t.Fatalf("other ring should be free: %d, want %d", c, a)
	}
	if busy, queue := count("r0.busy_cycles"), count("r0.queue_cycles"); busy != 2*int64(a) || queue != int64(a) {
		t.Fatalf("ring 0 busy/queue = %d/%d cycles, want %d/%d", busy, queue, 2*a, a)
	}
	if busy := count("r1.busy_cycles"); busy != int64(a) {
		t.Fatalf("ring 1 busy = %d cycles, want %d", busy, a)
	}
}

func TestRoundTrip(t *testing.T) {
	n := network(t, 2)
	count := counted(n)
	rt := n.RoundTrip(0, 0, 0, 1, 32)
	oneWay := n.TransitCycles(0, 1, 32)
	if rt != 2*oneWay {
		t.Fatalf("round trip = %d, want %d", rt, 2*oneWay)
	}
	if p := count("r0.packets"); p != 2 {
		t.Fatalf("r0.packets = %d, want 2", p)
	}
}
