package xbar

import (
	"testing"

	"spp1000/internal/sim"
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
	if done := x.Traverse(5, 2, 2, 10); done != 15 {
		t.Fatalf("same-port transfer = %d, want now+dur", done)
	}
	if x.Transfers() != 0 {
		t.Fatal("same-port transfer should not book the switch")
	}
}

func TestIOPortUsable(t *testing.T) {
	x := New()
	done := x.Traverse(0, 0, IOPort, 8)
	if done != 8 {
		t.Fatalf("I/O port transfer = %d", done)
	}
	if x.PortBusy(IOPort) != 8 {
		t.Fatalf("I/O port busy = %d, want 8", x.PortBusy(IOPort))
	}
}

func TestReset(t *testing.T) {
	x := New()
	x.Traverse(0, 0, 1, 100)
	x.Reset()
	if x.Traverse(0, 0, 1, 10) != 10 {
		t.Fatal("reset should clear horizons")
	}
	if x.Transfers() != 1 {
		t.Fatal("reset should clear the transfer count")
	}
	_ = sim.Cycles(0)
}

// IOPort is the port index of the I/O connection.
const IOPort = topology.FUsPerNode

// Transfers reports the number of traversals completed.
func (x *Crossbar) Transfers() int64 { return x.transfers }

// PortBusy reports the accumulated service time of a port.
func (x *Crossbar) PortBusy(port int) sim.Cycles { return x.ports[port].Busy() }
