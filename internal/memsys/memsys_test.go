package memsys

import (
	"slices"
	"testing"
	"testing/quick"

	"spp1000/internal/counters"
	"spp1000/internal/rng"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

func newSys(t *testing.T, nodes int) *System {
	t.Helper()
	topo, err := topology.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, topology.DefaultParams(), 0)
}

func TestCacheHitIsOneCycle(t *testing.T) {
	s := newSys(t, 1)
	sp := s.Alloc("x", topology.NearShared, 0, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	s.Access(0, cpu, sp, 0, false) // cold miss
	rep := s.Access(1000, cpu, sp, 0, false)
	if hits := s.TotalCounters().Hits; hits != 1 || rep.Done != 1000+sim.Cycles(s.P.CacheHit) {
		t.Fatalf("hit report = %+v, hits = %d", rep, hits)
	}
}

func TestLocalMissLatencyRange(t *testing.T) {
	s := newSys(t, 1)
	sp := s.Alloc("x", topology.ThreadPrivate, 0, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	rep := s.Access(0, cpu, sp, 0, false)
	lat := int64(rep.Done)
	// Paper §2.6: local miss ≈ 50–60 cycles plus small directory cost.
	if lat < 50 || lat > 80 {
		t.Fatalf("local miss latency = %d cycles, want ≈50-60", lat)
	}
}

func TestHypernodeMissCostsMoreThanLocal(t *testing.T) {
	s := newSys(t, 1)
	cpu := topology.MakeCPU(0, 0, 0)
	local := s.Alloc("local", topology.ThreadPrivate, 0, 0)
	shared := s.Alloc("shared", topology.NearShared, 0, 0)
	repL := s.Access(0, cpu, local, 0, false)
	// Pick an address homed on another FU.
	var addr topology.Addr
	for a := topology.Addr(0); a < 1024; a += 32 {
		if s.Home(shared, a, cpu).FU != cpu.FU() {
			addr = a
			break
		}
	}
	repH := s.Access(10000, cpu, shared, addr, false)
	latL, latH := int64(repL.Done), int64(repH.Done-10000)
	if latH <= latL {
		t.Fatalf("crossbar miss (%d) should exceed local miss (%d)", latH, latL)
	}
}

func TestGlobalMissApproxEightTimesLocal(t *testing.T) {
	s := newSys(t, 2)
	cpu := topology.MakeCPU(0, 0, 0)
	remote := s.Alloc("remote", topology.NearShared, 1, 0) // homed on hn1
	near := s.Alloc("near", topology.NearShared, 0, 0)

	repG := s.Access(0, cpu, remote, 0, false)
	if s.TotalCounters().GlobalMisses != 1 {
		t.Fatal("access to hn1-homed line from hn0 should be global")
	}
	repN := s.Access(100000, cpu, near, 0, false)
	latG := float64(repG.Done)
	latN := float64(repN.Done - 100000)
	ratio := latG / latN
	if ratio < 5 || ratio > 11 {
		t.Fatalf("global/hypernode miss ratio = %.1f (%v vs %v), want ≈8", ratio, latG, latN)
	}
}

func TestGlobalBufferMakesReaccessLocal(t *testing.T) {
	s := newSys(t, 2)
	cpuA := topology.MakeCPU(0, 0, 0)
	cpuB := topology.MakeCPU(0, 0, 1) // same FU, other CPU
	remote := s.Alloc("remote", topology.NearShared, 1, 0)

	s.Access(0, cpuA, remote, 0, false) // global fetch, installs buffer copy
	rep := s.Access(100000, cpuB, remote, 0, false)
	if s.TotalCounters().GlobalMisses != 1 {
		t.Fatal("second access from the same hypernode should hit the global buffer")
	}
	lat := int64(rep.Done - 100000)
	if lat > 100 {
		t.Fatalf("buffered access latency = %d cycles, want hypernode-class", lat)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := newSys(t, 1)
	sp := s.Alloc("flag", topology.NearShared, 0, 0)
	readers := []topology.CPUID{1, 2, 3, 4}
	for _, c := range readers {
		s.Access(0, c, sp, 0, false)
	}
	writer := topology.CPUID(0)
	rep := s.Access(1000, writer, sp, 0, true)
	if len(rep.Invalidated) != len(readers) {
		t.Fatalf("invalidated %d copies, want %d", len(rep.Invalidated), len(readers))
	}
	// Victims' subsequent reads must miss.
	hits := s.TotalCounters().Hits
	for _, c := range readers {
		s.Access(2000, c, sp, 0, false)
		if s.TotalCounters().Hits != hits {
			t.Fatalf("cpu %v should have lost its copy", c)
		}
	}
}

func TestInvalidationTimesMonotone(t *testing.T) {
	s := newSys(t, 2)
	sp := s.Alloc("flag", topology.NearShared, 0, 0)
	// Sharers on both hypernodes.
	for _, c := range []topology.CPUID{1, 2, 8, 9, 10} {
		s.Access(0, c, sp, 0, false)
	}
	rep := s.Access(1000, 0, sp, 0, true)
	var prev sim.Cycles
	for _, inv := range rep.Invalidated {
		if inv.At < prev {
			t.Fatalf("invalidation times not monotone: %+v", rep.Invalidated)
		}
		prev = inv.At
	}
	if len(rep.Invalidated) != 5 {
		t.Fatalf("invalidated %d, want 5", len(rep.Invalidated))
	}
}

func TestRemoteWriteCostsMoreThanLocalWrite(t *testing.T) {
	sLocal := newSys(t, 2)
	spL := sLocal.Alloc("x", topology.NearShared, 0, 0)
	// 4 local sharers, writer local.
	for _, c := range []topology.CPUID{1, 2, 3, 4} {
		sLocal.Access(0, c, spL, 0, false)
	}
	repLocal := sLocal.Access(1000, 0, spL, 0, true)

	sGlobal := newSys(t, 2)
	spG := sGlobal.Alloc("x", topology.NearShared, 0, 0)
	// 4 sharers on the other hypernode.
	for _, c := range []topology.CPUID{8, 9, 10, 11} {
		sGlobal.Access(0, c, spG, 0, false)
	}
	repGlobal := sGlobal.Access(1000, 0, spG, 0, true)

	costLocal := repLocal.Done - 1000
	costGlobal := repGlobal.Done - 1000
	if costGlobal <= costLocal {
		t.Fatalf("cross-hypernode invalidation (%v) should cost more than local (%v)", costGlobal, costLocal)
	}
}

func TestUncachedRMWBypassesCache(t *testing.T) {
	s := newSys(t, 2)
	sp := s.Alloc("sema", topology.NearShared, 0, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	t1 := s.UncachedRMW(0, cpu, sp, 0)
	t2 := s.UncachedRMW(t1, cpu, sp, 0)
	if t2-t1 < sim.Cycles(s.P.UncachedAccess) {
		t.Fatalf("repeat RMW latency %v below bank service time", t2-t1)
	}
	if s.caches[cpu].Contains(topology.LineKey{Space: sp, Line: 0}) {
		t.Fatal("uncached access must not allocate in the cache")
	}
	// Remote semaphore costs more (ring transit).
	remote := s.Alloc("rsema", topology.NearShared, 1, 0)
	t3 := s.UncachedRMW(0, cpu, remote, 0)
	if t3 <= t1 {
		t.Fatalf("remote RMW (%v) should exceed local (%v)", t3, t1)
	}
}

func TestBankContentionSerializes(t *testing.T) {
	s := newSys(t, 1)
	sp := s.Alloc("a", topology.NearShared, 0, 0)
	// Two CPUs miss on two different lines in the same bank (same FU home).
	cpu1 := topology.MakeCPU(0, 1, 0)
	cpu2 := topology.MakeCPU(0, 2, 0)
	var addrs []topology.Addr
	for a := topology.Addr(0); a < 4096 && len(addrs) < 2; a += 32 {
		if s.Home(sp, a, cpu1).FU == 0 {
			addrs = append(addrs, a)
		}
	}
	r1 := s.Access(0, cpu1, sp, addrs[0], false)
	r2 := s.Access(0, cpu2, sp, addrs[1], false)
	if r2.Done <= r1.Done {
		t.Fatalf("same-bank misses should serialize: %v then %v", r1.Done, r2.Done)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newSys(t, 2)
	sp := s.Alloc("x", topology.NearShared, 1, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	s.Access(0, cpu, sp, 0, false)
	s.Access(1000, cpu, sp, 0, false)
	c := s.TotalCounters()
	if c.Accesses != 2 || c.Hits != 1 || c.GlobalMisses != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestUnallocatedSpacePanics(t *testing.T) {
	s := newSys(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unallocated space")
		}
	}()
	s.Access(0, 0, topology.Space(42), 0, false)
}

func TestGlobalBufferCapacityEviction(t *testing.T) {
	s := newSys(t, 2)
	s.bufferCap = 4
	remote := s.Alloc("remote", topology.NearShared, 1, 0)
	cpu := topology.MakeCPU(0, 0, 0)
	now := sim.Cycles(0)
	// Touch 8 distinct remote lines: the first 4 must roll out.
	for i := 0; i < 8; i++ {
		rep := s.Access(now, cpu, remote, topology.Addr(i*topology.CacheLineBytes), false)
		now = rep.Done + 100
	}
	inBuf := 0
	for i := 0; i < 8; i++ {
		key := topology.LineKey{Space: remote, Line: uint64(i)}
		if s.SCI.InBuffer(0, key) {
			inBuf++
		}
	}
	if inBuf != 4 {
		t.Fatalf("buffered lines = %d, want capacity 4", inBuf)
	}
	// The evicted line 0 is a full global fetch again (its cache copy
	// also died with the rollout).
	global := s.TotalCounters().GlobalMisses
	s.Access(now, cpu, remote, 0, false)
	if s.TotalCounters().GlobalMisses != global+1 {
		t.Fatal("re-access to an evicted line should be a global fetch")
	}
	if err := s.SCI.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Thrash detector: with a large capacity the same pattern stays
	// buffered.
	s2 := newSys(t, 2)
	remote2 := s2.Alloc("remote", topology.NearShared, 1, 0)
	now = 0
	for i := 0; i < 8; i++ {
		rep := s2.Access(now, cpu, remote2, topology.Addr(i*topology.CacheLineBytes), false)
		now = rep.Done + 100
	}
	for i := 0; i < 8; i++ {
		key := topology.LineKey{Space: remote2, Line: uint64(i)}
		if !s2.SCI.InBuffer(0, key) {
			t.Fatalf("default capacity should retain line %d", i)
		}
	}
}

// Property: directory and SCI invariants hold under random access
// sequences from random CPUs, and reported completion times never
// precede the start time.
func TestCoherenceInvariantsUnderLoad(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		topo, _ := topology.New(2)
		s := New(topo, topology.DefaultParams(), 64)
		spaces := []topology.Space{
			s.Alloc("a", topology.NearShared, 0, 0),
			s.Alloc("b", topology.NearShared, 1, 0),
			s.Alloc("c", topology.FarShared, 0, 0),
		}
		now := sim.Cycles(0)
		for i := 0; i < 300; i++ {
			cpu := topology.CPUID(rnd.Intn(topo.NumCPUs()))
			sp := spaces[rnd.Intn(len(spaces))]
			addr := topology.Addr(rnd.Intn(16) * 32)
			write := rnd.Intn(3) == 0
			rep := s.Access(now, cpu, sp, addr, write)
			if rep.Done < now {
				t.Logf("seed %d: completion %v before start %v", seed, rep.Done, now)
				return false
			}
			now += sim.Cycles(rnd.Intn(200))
			for hn := 0; hn < topo.Hypernodes; hn++ {
				if err := s.dirs[hn].CheckInvariants(); err != nil {
					t.Logf("seed %d step %d: %v", seed, i, err)
					return false
				}
			}
			if err := s.SCI.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a write completes, no other CPU's cache holds the line.
func TestWriteExclusivityAcrossMachine(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		topo, _ := topology.New(2)
		s := New(topo, topology.DefaultParams(), 64)
		sp := s.Alloc("x", topology.NearShared, rnd.Intn(2), 0)
		addr := topology.Addr(rnd.Intn(8) * 32)
		key := topology.LineKey{Space: sp, Line: addr.Line()}
		// Random readers.
		for i := 0; i < 10; i++ {
			s.Access(0, topology.CPUID(rnd.Intn(16)), sp, addr, false)
		}
		writer := topology.CPUID(rnd.Intn(16))
		s.Access(10000, writer, sp, addr, true)
		for c := 0; c < topo.NumCPUs(); c++ {
			if topology.CPUID(c) == writer {
				continue
			}
			if s.caches[topology.CPUID(c)].Contains(key) {
				t.Logf("seed %d: cpu %d retains the line after write by %d", seed, c, writer)
				return false
			}
		}
		return s.caches[writer].Dirty(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A write that displaces a dirty owner in the writer's hypernode waits
// for the owner's writeback and then kills its copy once, one
// InvalPerCopy later — whether the line is homed here or is a remote
// line in this hypernode's global buffer.
func TestWriteKillsDirtyOwnerOnce(t *testing.T) {
	for _, host := range []int{0, 1} {
		s := newSys(t, 2)
		sp := s.Alloc("x", topology.NearShared, host, 0)
		a := topology.MakeCPU(0, 0, 0)
		b := topology.MakeCPU(0, 0, 1) // same FU, which homes line 0
		s.Access(0, a, sp, 0, true)
		const issue = 100000
		rep := s.Access(issue, b, sp, 0, true)
		killed := issue + sim.Cycles(s.P.DirLookup+s.P.WriteBack+s.P.InvalPerCopy)
		if want := []Invalidation{{CPU: a, At: killed}}; !slices.Equal(rep.Invalidated, want) {
			t.Errorf("line homed on hn%d: invalidated %+v, want %+v", host, rep.Invalidated, want)
		}
		if want := killed + sim.Cycles(s.P.LocalMiss); rep.Done != want {
			t.Errorf("line homed on hn%d: done at %d, want %d", host, rep.Done, want)
		}
		if got := s.TotalCounters().InvalsReceived; got != 1 {
			t.Errorf("line homed on hn%d: %d invalidations received, want 1", host, got)
		}
	}
}

// Every invalidation the memory system tallies is one the caches saw:
// InvalsReceived equals the caches' invalidations counter on the random
// workload, in every pinned configuration.
func TestInvalidationsReconcile(t *testing.T) {
	for _, hn := range []int{2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, set := range pinSettings {
				r := counters.NewRegistry()
				s := newPinSystem(t, hn, set, r)
				playRandom(s, seed, func(sim.Cycles, []Invalidation) {})
				got := s.TotalCounters().InvalsReceived
				if want := r.Snapshot().GroupTotal("cache", "invalidations"); got != want {
					t.Errorf("hn%d/seed%d/%s: InvalsReceived %d, cache invalidations %d", hn, seed, set.name, got, want)
				}
			}
		}
	}
}
