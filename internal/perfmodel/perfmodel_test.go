package perfmodel

import (
	"testing"
	"testing/quick"

	"spp1000/internal/topology"
)

func TestCyclesPureFlops(t *testing.T) {
	p := topology.DefaultParams()
	c := Chunk{Flops: 1000}
	if got := Cycles(p, c); got != 1000 {
		t.Fatalf("1000 flops = %d cycles, want 1000 at 1 flop/cycle", got)
	}
}

func TestCacheTrafficOverlapsFP(t *testing.T) {
	p := topology.DefaultParams()
	// Equal flops and hits: fully overlapped.
	if got := Cycles(p, Chunk{Flops: 1000, CacheHits: 1000}); got != 1000 {
		t.Fatalf("balanced chunk = %d cycles, want 1000", got)
	}
	// Memory-bound: hits dominate.
	if got := Cycles(p, Chunk{Flops: 100, CacheHits: 1000}); got != 1000 {
		t.Fatalf("memory-bound chunk = %d cycles, want 1000", got)
	}
}

func TestMissesSerialize(t *testing.T) {
	p := topology.DefaultParams()
	base := Cycles(p, Chunk{Flops: 1000})
	withLocal := Cycles(p, Chunk{Flops: 1000, LocalMisses: 10})
	if withLocal != base+10*p.LocalMiss {
		t.Fatalf("local misses mischarged: %d vs %d", withLocal, base+10*p.LocalMiss)
	}
	withGlobal := Cycles(p, Chunk{Flops: 1000, GlobalMisses: 10})
	if withGlobal <= withLocal {
		t.Fatal("global misses must cost more than local")
	}
}

func TestDividesCost(t *testing.T) {
	p := topology.DefaultParams()
	if got := Cycles(p, Chunk{Divides: 10}); got != 10*DivideCycles {
		t.Fatalf("10 divides = %d cycles", got)
	}
}

func TestGlobalMissCost(t *testing.T) {
	p := topology.DefaultParams()
	if got, want := Cycles(p, Chunk{GlobalMisses: 1}), p.GlobalMissCycles(1); got != want {
		t.Fatalf("one global miss = %d cycles, want %d (one ring hop)", got, want)
	}
}

func TestRingImports(t *testing.T) {
	for _, c := range []struct {
		name              string
		lines             int64
		hypernodes, procs int
		want              int64
	}{
		{"one hypernode", 4096, 1, 8, 0},
		{"fewer procs than hypernodes", 4096, 4, 2, 4096 * 3 / 4},
		{"16 procs on 2 hypernodes", 4096, 2, 16, 4096 * 1 / 2 / 8},
		{"128 procs on 16 hypernodes", 100003, 16, 128, 100003 * 15 / 16 / 8},
	} {
		if got := RingImports(c.lines, c.hypernodes, c.procs); got != c.want {
			t.Errorf("%s: RingImports(%d, %d, %d) = %d, want %d", c.name, c.lines, c.hypernodes, c.procs, got, c.want)
		}
	}
}

func TestCapacityMissFraction(t *testing.T) {
	if f := CapacityMissFraction(1<<19, 1<<20); f != 0 {
		t.Fatalf("resident set miss fraction = %v, want 0", f)
	}
	f := CapacityMissFraction(2<<20, 1<<20)
	if f != 0.5 {
		t.Fatalf("2x cache = %v, want 0.5", f)
	}
	if CapacityMissFraction(100, 0) != 0 {
		t.Fatal("zero cache should yield 0 (treated as disabled)")
	}
}

// Property: Cycles is monotone — adding work never reduces time.
func TestCyclesMonotoneProperty(t *testing.T) {
	p := topology.DefaultParams()
	prop := func(f, h, l, g uint16) bool {
		base := Chunk{Flops: int64(f), CacheHits: int64(h), LocalMisses: int64(l), GlobalMisses: int64(g)}
		more := base
		more.Flops += 10
		more.GlobalMisses += 1
		return Cycles(p, more) >= Cycles(p, base)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
