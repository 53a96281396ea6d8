package xbar

import (
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

func TestUncontendedTraversal(t *testing.T) {
	x := New()
	done := x.Traverse(100, 0, 1, 6)
	if done != 106 {
		t.Fatalf("done = %d, want 106", done)
	}
}

func TestConflictingTraversalsQueue(t *testing.T) {
	x := New()
	first := x.Traverse(0, 0, 1, 10)
	second := x.Traverse(0, 2, 1, 10) // same destination port
	if first != 10 {
		t.Fatalf("first done = %d", first)
	}
	if second != 20 {
		t.Fatalf("second should queue behind the first at port 1: done = %d, want 20", second)
	}
}

func TestDisjointPortsOverlap(t *testing.T) {
	x := New()
	a := x.Traverse(0, 0, 1, 10)
	b := x.Traverse(0, 2, 3, 10)
	if a != 10 || b != 10 {
		t.Fatalf("disjoint transfers should overlap: %d, %d", a, b)
	}
}

func TestSamePortNoOp(t *testing.T) {
	x := New()
	reg := counters.NewRegistry()
	x.AttachCounters(reg.Group("xbar"))
	if done := x.Traverse(5, 2, 2, 10); done != 15 {
		t.Fatalf("same-port transfer = %d, want now+dur", done)
	}
	if g := reg.Snapshot().Counter("xbar", "grants"); g != 0 {
		t.Fatalf("same-port transfer booked the switch: grants = %d, want 0", g)
	}
	for i := range x.ports {
		if f := x.ports[i].FreeAt(); f != 0 {
			t.Fatalf("port %d horizon = %d, want 0", i, f)
		}
	}
}

func TestIOPortUsable(t *testing.T) {
	x := New()
	done := x.Traverse(0, 0, IOPort, 8)
	if done != 8 {
		t.Fatalf("I/O port transfer = %d", done)
	}
	if f := x.ports[IOPort].FreeAt(); f != 8 {
		t.Fatalf("I/O port horizon = %d, want 8", f)
	}
}

// IOPort is the port index of the I/O connection.
const IOPort = topology.FUsPerNode
