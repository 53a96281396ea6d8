package topology

import (
	"testing"
	"testing/quick"
)

func TestCPUIDDecomposition(t *testing.T) {
	cases := []struct {
		id                  CPUID
		hn, fu, local, ring int
	}{
		{0, 0, 0, 0, 0},
		{1, 0, 0, 1, 0},
		{2, 0, 1, 0, 1},
		{7, 0, 3, 1, 3},
		{8, 1, 0, 0, 0},
		{15, 1, 3, 1, 3},
		{127, 15, 3, 1, 3},
	}
	for _, c := range cases {
		if c.id.Hypernode() != c.hn || c.id.FU() != c.fu || c.id.Local() != c.local || c.id.Ring() != c.ring {
			t.Errorf("CPUID(%d) = hn%d.fu%d.cpu%d ring%d, want hn%d.fu%d.cpu%d ring%d",
				int(c.id), c.id.Hypernode(), c.id.FU(), c.id.Local(), c.id.Ring(), c.hn, c.fu, c.local, c.ring)
		}
	}
}

func TestMakeCPURoundTrip(t *testing.T) {
	prop := func(raw uint8) bool {
		id := CPUID(int(raw) % 128)
		return MakeCPU(id.Hypernode(), id.FU(), id.Local()) == id
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1, 17, 100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) should fail", n)
		}
	}
	for _, n := range []int{1, 2, 16} {
		topo, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if topo.NumCPUs() != n*8 {
			t.Errorf("New(%d).NumCPUs() = %d, want %d", n, topo.NumCPUs(), n*8)
		}
	}
}

func TestCPUsEnumeration(t *testing.T) {
	topo, _ := New(2)
	ids := topo.CPUs()
	if len(ids) != 16 {
		t.Fatalf("got %d CPUs, want 16", len(ids))
	}
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("CPUs()[%d] = %d", i, int(id))
		}
	}
}

func TestRingHops(t *testing.T) {
	topo, _ := New(4)
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {3, 0, 1}, {2, 1, 3},
	}
	for _, c := range cases {
		if got := topo.RingHops(c.src, c.dst); got != c.want {
			t.Errorf("RingHops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestAddrLinePage(t *testing.T) {
	if Addr(0).Line() != 0 || Addr(31).Line() != 0 || Addr(32).Line() != 1 {
		t.Error("line index math wrong")
	}
	if Addr(4095).Page() != 0 || Addr(4096).Page() != 1 {
		t.Error("page index math wrong")
	}
}

func TestHomeThreadPrivate(t *testing.T) {
	topo, _ := New(2)
	cpu := MakeCPU(1, 2, 1)
	pl := topo.Home(ThreadPrivate, 12345, cpu, 0, 0)
	if pl.Hypernode != 1 || pl.FU != 2 {
		t.Fatalf("thread-private home = %+v, want accessor's own FU", pl)
	}
}

func TestHomeNodePrivateStaysLocal(t *testing.T) {
	topo, _ := New(4)
	cpu := MakeCPU(3, 0, 0)
	for a := Addr(0); a < 1024; a += 32 {
		pl := topo.Home(NodePrivate, a, cpu, 0, 0)
		if pl.Hypernode != 3 {
			t.Fatalf("node-private left the hypernode: %+v", pl)
		}
	}
}

func TestHomeNearSharedHosted(t *testing.T) {
	topo, _ := New(4)
	cpu := MakeCPU(0, 0, 0)
	seenFU := map[int]bool{}
	for a := Addr(0); a < 1024; a += 32 {
		pl := topo.Home(NearShared, a, cpu, 2, 0)
		if pl.Hypernode != 2 {
			t.Fatalf("near-shared not on host hypernode: %+v", pl)
		}
		seenFU[pl.FU] = true
	}
	if len(seenFU) != FUsPerNode {
		t.Fatalf("near-shared not interleaved across FUs: %v", seenFU)
	}
}

func TestHomeFarSharedRoundRobinPages(t *testing.T) {
	topo, _ := New(4)
	cpu := MakeCPU(0, 0, 0)
	for page := 0; page < 8; page++ {
		pl := topo.Home(FarShared, Addr(page*PageBytes), cpu, 0, 0)
		if pl.Hypernode != page%4 {
			t.Fatalf("page %d homed at hn%d, want hn%d", page, pl.Hypernode, page%4)
		}
	}
}

func TestHomeBlockShared(t *testing.T) {
	topo, _ := New(2)
	cpu := MakeCPU(0, 0, 0)
	block := 1024
	for i := 0; i < 8; i++ {
		pl := topo.Home(BlockShared, Addr(i*block), cpu, 0, block)
		if pl.Hypernode != i%2 {
			t.Fatalf("block %d homed at hn%d, want hn%d", i, pl.Hypernode, i%2)
		}
	}
	// Zero block size falls back to the page size.
	pl := topo.Home(BlockShared, Addr(PageBytes), cpu, 0, 0)
	if pl.Hypernode != 1 {
		t.Fatalf("default block size should be a page; got %+v", pl)
	}
}

// Property: every home is a valid placement within the machine.
func TestHomeAlwaysValid(t *testing.T) {
	topo, _ := New(3)
	prop := func(rawClass uint8, rawAddr uint32, rawCPU uint8, host int8, block uint16) bool {
		class := Class(int(rawClass) % 5)
		cpu := CPUID(int(rawCPU) % topo.NumCPUs())
		pl := topo.Home(class, Addr(rawAddr), cpu, int(host), int(block))
		return pl.Hypernode >= 0 && pl.Hypernode < topo.Hypernodes && pl.FU >= 0 && pl.FU < FUsPerNode
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalMissRatio(t *testing.T) {
	p := DefaultParams()
	// Paper §6: global miss ≈ 8× hypernode-local, measured on the
	// two-hypernode system (one ring hop each way).
	ratio := float64(p.GlobalMissCycles(1)) / float64(p.HypernodeMiss)
	if ratio < 6.5 || ratio > 9.5 {
		t.Fatalf("global/local miss ratio = %.2f, want ≈8", ratio)
	}
	// Each further hop adds one ring hop to the request and one to the
	// response.
	if got, want := p.GlobalMissCycles(8)-p.GlobalMissCycles(1), 14*p.RingHop; got != want {
		t.Fatalf("7 extra hops add %d cycles, want %d", got, want)
	}
}

func TestClassString(t *testing.T) {
	if ThreadPrivate.String() != "thread-private" || FarShared.String() != "far-shared" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still format")
	}
}

// CPUs returns all CPU identifiers in machine order.
func (t Topology) CPUs() []CPUID {
	ids := make([]CPUID, t.NumCPUs())
	for i := range ids {
		ids[i] = CPUID(i)
	}
	return ids
}
