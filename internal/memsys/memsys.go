// Package memsys composes the SPP-1000 memory hierarchy: per-CPU caches,
// per-hypernode directories and crossbars, the global SCI protocol, and
// the ring network. Its Access method plays one load or store through the
// full machine, updating all coherence state and returning the completion
// time — including queueing on banks, crossbar ports, and rings.
package memsys

import (
	"fmt"

	"spp1000/internal/cache"
	"spp1000/internal/counters"
	"spp1000/internal/directory"
	"spp1000/internal/ring"
	"spp1000/internal/sci"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
	"spp1000/internal/xbar"
)

// spaceInfo is the allocation record of one memory object.
type spaceInfo struct {
	name       string
	class      topology.Class
	host       int // NearShared host hypernode
	blockBytes int // BlockShared distribution unit
}

// Counters is the machine-wide CXpa-style instrumentation. A miss is
// global when its line is homed at another hypernode and is not in this
// hypernode's global cache buffer; otherwise a bank of the home FU in
// this hypernode serves it (the buffer lives in that FU's memory too),
// which is local when that FU is the CPU's own and a hypernode miss when
// it is another.
type Counters struct {
	Accesses        int64
	Hits            int64
	LocalMisses     int64 // served by the CPU's own FU
	HypernodeMisses int64 // served by another FU, over the crossbar
	GlobalMisses    int64 // served over an SCI ring
	InvalsReceived  int64
	StallCycles     int64 // total cycles waiting on memory
}

// System is the machine-wide memory system.
type System struct {
	Topo   topology.Topology
	P      topology.Params
	caches []*cache.Cache
	dirs   []*directory.Directory
	SCI    *sci.Protocol
	Rings  *ring.Network
	xbars  []*xbar.Crossbar // one 5-port switch per hypernode
	banks  [][]sim.Resource // memory banks, per hypernode per FU
	spaces []spaceInfo
	stats  Counters // machine-wide tally (see TotalCounters)
	ctr    memHooks // optional PMU counters (see AttachCountersBase)

	// Ablation switches (see internal/ablation): DisableGlobalBuffer
	// makes every access to a remotely-homed line a full ring
	// transaction (no SCI caching of remote lines); SingleRing routes
	// all inter-hypernode traffic over ring 0 instead of one ring per
	// functional unit.
	DisableGlobalBuffer bool
	SingleRing          bool

	// The global cache buffer is carved out of functional-unit memory
	// (§2.5), so it is finite: bufferCap lines per hypernode, evicted
	// FIFO with an SCI rollout (list detach) per victim.
	bufferCap  int
	bufferFIFO [][]topology.LineKey
}

// memHooks are the machine-level PMU counter handles: access counts and
// stall-cycle totals broken down by service class (the §2.6/§6 latency
// ladder: cache hit, FU-local memory, crossbar, SCI ring). All nil —
// free no-ops — until AttachCountersBase.
type memHooks struct {
	accesses            *counters.Counter
	hits                *counters.Counter
	upgrades            *counters.Counter
	upgradeCycles       *counters.Counter
	localMisses         *counters.Counter
	localMissCycles     *counters.Counter
	hypernodeMisses     *counters.Counter
	hypernodeMissCycles *counters.Counter
	globalMisses        *counters.Counter
	globalMissCycles    *counters.Counter
	rmws                *counters.Counter
	rmwCycles           *counters.Counter
}

// AttachCountersBase wires every component of the memory system into
// the registry, one group per component instance: cache.hn<N> (the
// eight CPU caches of a hypernode aggregate), directory.hn<N>,
// xbar.hn<N>, sci, ring, and the machine-level mem group with per-class
// miss counts and stall cycles. Counters never touch virtual time, so
// attaching them cannot change any simulated result. A nil registry
// detaches everything.
//
// The hypernode numbers in the group names are offset by base (0 for a
// monolithic machine). A partitioned cluster (internal/parsim)
// builds one 1-hypernode System per simulated hypernode; base gives each
// its global hypernode number so the per-partition snapshots merge into
// one machine-wide snapshot without name collisions. The machine-wide
// groups (mem, sci, ring) keep their unqualified names and therefore sum
// across partitions on merge, exactly as a monolithic machine would
// count them.
func (s *System) AttachCountersBase(r *counters.Registry, base int) {
	for i, c := range s.caches {
		c.AttachCounters(r.Group(fmt.Sprintf("cache.hn%d", base+topology.CPUID(i).Hypernode())))
	}
	for hn, d := range s.dirs {
		d.AttachCounters(r.Group(fmt.Sprintf("directory.hn%d", base+hn)))
	}
	for hn, x := range s.xbars {
		x.AttachCounters(r.Group(fmt.Sprintf("xbar.hn%d", base+hn)))
	}
	s.SCI.AttachCounters(r.Group("sci"))
	s.Rings.AttachCounters(r.Group("ring"))
	g := r.Group("mem")
	s.ctr = memHooks{
		accesses:            g.Counter("accesses"),
		hits:                g.Counter("hits"),
		upgrades:            g.Counter("upgrades"),
		upgradeCycles:       g.Counter("upgrade_cycles"),
		localMisses:         g.Counter("local_misses"),
		localMissCycles:     g.Counter("local_miss_cycles"),
		hypernodeMisses:     g.Counter("hypernode_misses"),
		hypernodeMissCycles: g.Counter("hypernode_miss_cycles"),
		globalMisses:        g.Counter("global_misses"),
		globalMissCycles:    g.Counter("global_miss_cycles"),
		rmws:                g.Counter("rmws"),
		rmwCycles:           g.Counter("rmw_cycles"),
	}
}

// DefaultBufferLines is the default per-hypernode global-buffer
// capacity: 2 MB out of each functional unit's memory × 4 FUs.
const DefaultBufferLines = 4 * (2 << 20) / topology.CacheLineBytes

// New builds the memory system for a machine, using custom cache geometry
// when cacheLines > 0 (tests; 0 means the architectural 32768 lines).
func New(topo topology.Topology, p topology.Params, cacheLines int) *System {
	s := &System{Topo: topo, P: p}
	n := topo.NumCPUs()
	s.caches = make([]*cache.Cache, n)
	for i := range s.caches {
		if cacheLines > 0 {
			s.caches[i] = cache.NewWithLines(cacheLines)
		} else {
			s.caches[i] = cache.New()
		}
	}
	s.dirs = make([]*directory.Directory, topo.Hypernodes)
	s.xbars = make([]*xbar.Crossbar, topo.Hypernodes)
	s.banks = make([][]sim.Resource, topo.Hypernodes)
	for hn := 0; hn < topo.Hypernodes; hn++ {
		s.dirs[hn] = directory.New(hn)
		s.xbars[hn] = xbar.New()
		s.banks[hn] = make([]sim.Resource, topology.FUsPerNode)
	}
	s.SCI = sci.New(topo.Hypernodes)
	s.Rings = ring.New(topo, p)
	s.bufferCap = DefaultBufferLines
	s.bufferFIFO = make([][]topology.LineKey, topo.Hypernodes)
	return s
}

// Alloc registers a memory object and returns its space handle.
// host is the hosting hypernode for NearShared; blockBytes the
// distribution unit for BlockShared (both ignored otherwise).
func (s *System) Alloc(name string, class topology.Class, host, blockBytes int) topology.Space {
	s.spaces = append(s.spaces, spaceInfo{name: name, class: class, host: host, blockBytes: blockBytes})
	return topology.Space(len(s.spaces) - 1)
}

// Invalidation records that a CPU's cached copy was killed at a time.
type Invalidation struct {
	CPU topology.CPUID
	At  sim.Cycles
}

// Report describes one access: when it completed and whom it invalidated
// (used by spin-wait modeling to release waiters at the right instants).
type Report struct {
	Done        sim.Cycles
	Invalidated []Invalidation
}

// Home resolves the line's home placement for an accessor.
func (s *System) Home(sp topology.Space, addr topology.Addr, cpu topology.CPUID) topology.Placement {
	info := s.spaces[sp]
	return s.Topo.Home(info.class, addr, cpu, info.host, info.blockBytes)
}

// Access plays one load (write=false) or store (write=true) of the word
// at addr in space sp by cpu, starting at now. All coherence state is
// updated; the report carries the completion time.
func (s *System) Access(now sim.Cycles, cpu topology.CPUID, sp topology.Space, addr topology.Addr, write bool) Report {
	if int(sp) >= len(s.spaces) {
		panic(fmt.Sprintf("memsys: access to unallocated space %d", sp))
	}
	key := topology.LineKey{Space: sp, Line: addr.Line()}
	s.stats.Accesses++
	s.ctr.accesses.Inc()
	t0 := now

	c := s.caches[cpu]
	myHN := cpu.Hypernode()
	home := s.Home(sp, addr, cpu)

	// Fast path: cache hit. A write hit still needs exclusivity if the
	// line is shared elsewhere.
	if c.Contains(key) {
		s.stats.Hits++
		s.ctr.hits.Inc()
		if !write || c.Dirty(key) {
			c.Access(key, write)
			return Report{Done: now + sim.Cycles(s.P.CacheHit)}
		}
		// Write to a shared (clean) cached line: upgrade.
		rep := s.acquireOwnership(now+sim.Cycles(s.P.CacheHit), cpu, key, home)
		c.Access(key, true)
		s.stats.StallCycles += int64(rep.Done - now)
		s.ctr.upgrades.Inc()
		s.ctr.upgradeCycles.Add(int64(rep.Done - now))
		return rep
	}

	// Miss: fill the line, handling the eviction first.
	if res := c.Access(key, write); res.HadEviction {
		// The directory forgets the victim; a dirty victim's writeback
		// is buffered and charged as fixed cycles.
		s.dirs[myHN].DropCPU(res.Evicted, cpu)
		if res.WritebackNeeded {
			now += sim.Cycles(s.P.WriteBack)
		}
	}

	// The service class (see Counters) picks the fill path, the tally
	// and the PMU pair.
	var rep Report
	var misses, cycles *counters.Counter
	switch {
	case home.Hypernode != myHN && (s.DisableGlobalBuffer || !s.SCI.InBuffer(myHN, key)):
		rep = s.globalFill(now, cpu, key, home, write)
		s.stats.GlobalMisses++
		misses, cycles = s.ctr.globalMisses, s.ctr.globalMissCycles
	case home.FU == cpu.FU():
		rep = s.nodeFill(now, cpu, key, home, write)
		s.stats.LocalMisses++
		misses, cycles = s.ctr.localMisses, s.ctr.localMissCycles
	default:
		rep = s.nodeFill(now, cpu, key, home, write)
		s.stats.HypernodeMisses++
		misses, cycles = s.ctr.hypernodeMisses, s.ctr.hypernodeMissCycles
	}
	s.stats.StallCycles += int64(rep.Done - now)
	misses.Inc()
	// Latency from the original issue time, including any eviction
	// writeback charged above.
	cycles.Add(int64(rep.Done - t0))
	return rep
}

// acquireOwnership upgrades a clean cached line to exclusive dirty:
// invalidate the other local copies through the directory and purge any
// remote hypernodes on the SCI list.
func (s *System) acquireOwnership(now sim.Cycles, cpu topology.CPUID, key topology.LineKey, home topology.Placement) Report {
	myHN := cpu.Hypernode()
	rep := Report{}
	// Unlike recordLocal, no writeback is charged for a dirty previous
	// owner: every fill path kills the other local copies of a line it
	// writes, so while this CPU holds a clean copy there is none.
	acts := s.dirs[myHN].RecordWrite(key, cpu)
	t := s.killAll(now+sim.Cycles(s.P.DirLookup), key, acts.InvalidateLocal, &rep)
	keep := -1
	if home.Hypernode != myHN {
		keep = myHN // our buffered copy stays, now exclusive
		// The ownership request itself must reach the home's directory.
		t = s.crossbar(t, myHN, cpu.FU(), home.FU, sim.Cycles(s.P.CrossbarTransit))
		t = s.Rings.RoundTrip(t, s.ring(home.FU), myHN, home.Hypernode, topology.CacheLineBytes)
	}
	t = s.purgeRemote(t, myHN, s.ring(home.FU), key, keep, &rep)
	// A write to a line homed at another hypernode must also kill any
	// copies cached at the home itself.
	if home.Hypernode != myHN {
		t = s.killAll(t, key, s.dirs[home.Hypernode].PurgeLine(key), &rep)
	}
	rep.Done = t
	return rep
}

// recordLocal enters the requester's new copy in its own hypernode's
// directory and plays the local coherence work from t: a read makes a
// dirty owner write the line back and keep it clean; a write waits for
// a dirty previous owner's writeback, then kills every other local copy
// (the previous owner's among them). It returns the instant the work is
// done.
func (s *System) recordLocal(t sim.Cycles, cpu topology.CPUID, key topology.LineKey, write bool, rep *Report) sim.Cycles {
	d := s.dirs[cpu.Hypernode()]
	if !write {
		if acts := d.RecordRead(key, cpu); acts.HasDirtyOwner {
			s.caches[acts.DirtyOwner].Clean(key)
			t += sim.Cycles(s.P.WriteBack)
		}
		return t
	}
	acts := d.RecordWrite(key, cpu)
	if acts.HasPreviousOwner {
		t += sim.Cycles(s.P.WriteBack)
	}
	return s.killAll(t, key, acts.InvalidateLocal, rep)
}

// kill invalidates cpu's cached copy of key at instant at, counts it,
// and records it in rep.
func (s *System) kill(cpu topology.CPUID, key topology.LineKey, at sim.Cycles, rep *Report) {
	s.caches[cpu].Invalidate(key)
	s.stats.InvalsReceived++
	rep.Invalidated = append(rep.Invalidated, Invalidation{CPU: cpu, At: at})
}

// killAll kills the victims' copies one after another, InvalPerCopy
// apart from t on, and returns the instant of the last kill.
func (s *System) killAll(t sim.Cycles, key topology.LineKey, victims []topology.CPUID, rep *Report) sim.Cycles {
	for _, v := range victims {
		t += sim.Cycles(s.P.InvalPerCopy)
		s.kill(v, key, t, rep)
	}
	return t
}

// nodeFill serves a miss from a memory bank of the home FU in the
// requester's hypernode: the line is homed here, or it is a remotely
// homed line in this hypernode's global cache buffer, which lives in
// the FU attached to the home line's ring. A write first makes the copy
// exclusive across the machine.
func (s *System) nodeFill(now sim.Cycles, cpu topology.CPUID, key topology.LineKey, home topology.Placement, write bool) Report {
	myHN := cpu.Hypernode()
	rep := Report{}
	t := s.recordLocal(now+sim.Cycles(s.P.DirLookup), cpu, key, write, &rep)
	if write && home.Hypernode == myHN {
		// Remote hypernodes holding buffered copies must be purged.
		t = s.purgeRemote(t, myHN, s.ring(home.FU), key, -1, &rep)
	} else if write {
		// Purge every other hypernode, and any copies cached at the
		// home hypernode itself.
		t = s.purgeRemote(t, myHN, s.ring(home.FU), key, myHN, &rep)
		if victims := s.dirs[home.Hypernode].PurgeLine(key); len(victims) > 0 {
			t = s.Rings.Send(t, s.ring(home.FU), myHN, home.Hypernode, topology.CacheLineBytes)
			t = s.killAll(t, key, victims, &rep)
		}
	}

	// Memory fetch: bank occupancy plus the latency of the path.
	bankDone := s.banks[myHN][home.FU].Reserve(t, sim.Cycles(s.P.MemoryBankBusy))
	queue := bankDone - t - sim.Cycles(s.P.MemoryBankBusy)
	if home.FU == cpu.FU() {
		t += sim.Cycles(s.P.LocalMiss) + queue
	} else {
		t = s.crossbar(t, myHN, cpu.FU(), home.FU, sim.Cycles(s.P.CrossbarTransit))
		t += sim.Cycles(s.P.HypernodeMiss-s.P.CrossbarTransit) + queue
	}
	rep.Done = t
	return rep
}

// globalFill serves a miss that must cross the rings: crossbar to the
// ring FU, SCI transaction to the home, install in the buffer, attach to
// the sharing list.
func (s *System) globalFill(now sim.Cycles, cpu topology.CPUID, key topology.LineKey, home topology.Placement, write bool) Report {
	myHN := cpu.Hypernode()
	rep := Report{}
	ringIdx := s.ring(home.FU) // FU i of every hypernode attaches to ring i

	// Crossbar leg to the local FU on the right ring.
	t := s.crossbar(now, myHN, cpu.FU(), ringIdx, sim.Cycles(s.P.CrossbarTransit))

	// Ring round trip: request out, line back.
	t = s.Rings.RoundTrip(t, ringIdx, myHN, home.Hypernode, topology.CacheLineBytes)
	t += sim.Cycles(s.P.RemoteDirLookup)

	// Remote memory bank service.
	bankDone := s.banks[home.Hypernode][home.FU].Reserve(t, sim.Cycles(s.P.MemoryBankBusy))
	t = bankDone - sim.Cycles(s.P.MemoryBankBusy) + sim.Cycles(s.P.LocalMiss)

	// If a CPU at the home hypernode holds the line dirty, the home
	// controller intervenes before supplying it.
	if owner, ok := s.dirs[home.Hypernode].Owner(key); ok {
		t += sim.Cycles(s.P.WriteBack)
		if write {
			s.dirs[home.Hypernode].PurgeLine(key)
			s.kill(owner, key, t, &rep)
		} else {
			s.caches[owner].Clean(key)
			s.dirs[home.Hypernode].RecordRead(key, owner) // downgrade to shared
		}
	} else if write {
		// Any clean copies at the home hypernode must also die.
		t = s.killAll(t, key, s.dirs[home.Hypernode].PurgeLine(key), &rep)
	}

	// Install in the local global buffer and attach to the SCI list,
	// rolling out the oldest buffered line if the buffer is full.
	t += sim.Cycles(s.P.GlobalBufferFill)
	if s.SCI.Attach(key, home.Hypernode, myHN) == 0 {
		s.bufferFIFO[myHN] = append(s.bufferFIFO[myHN], key)
		t = s.evictIfFull(t, myHN, ringIdx)
	}

	if write {
		// Fetch-exclusive: purge every other sharer.
		t = s.purgeRemote(t, myHN, ringIdx, key, myHN, &rep)
	}
	// With the global buffer on, a line it does not hold has no copies
	// in this hypernode, so only the DisableGlobalBuffer ablation gives
	// recordLocal anything to kill or clean here.
	t = s.recordLocal(t, cpu, key, write, &rep)

	// Crossbar leg back to the requesting CPU's FU.
	t = s.crossbar(t, myHN, ringIdx, cpu.FU(), sim.Cycles(s.P.CrossbarTransit))
	rep.Done = t
	return rep
}

// evictIfFull rolls the oldest buffered lines out of hypernode hn's
// global cache buffer until it is within capacity: the SCI sharing-list
// detach costs a ring transaction, and any locally cached copies of the
// victim die with it.
func (s *System) evictIfFull(now sim.Cycles, hn, ringIdx int) sim.Cycles {
	t := now
	fifo := s.bufferFIFO[hn]
	if len(fifo) <= s.bufferCap {
		return t // cannot be over capacity
	}
	live := 0
	for _, k := range fifo {
		if s.SCI.InBuffer(hn, k) {
			live++
		}
	}
	if live <= s.bufferCap {
		// Compact out the dead entries so the FIFO stays short.
		kept := fifo[:0]
		for _, k := range fifo {
			if s.SCI.InBuffer(hn, k) {
				kept = append(kept, k)
			}
		}
		s.bufferFIFO[hn] = kept
		return t
	}
	for live > s.bufferCap && len(fifo) > 0 {
		victim := fifo[0]
		fifo = fifo[1:]
		if !s.SCI.InBuffer(hn, victim) {
			continue // already purged by a writer
		}
		s.SCI.Detach(victim, hn)
		live--
		// SCI rollout: patch the sharing-list neighbours over the ring.
		t = s.Rings.Send(t, ringIdx, hn, s.Home(victim.Space, topology.Addr(victim.Line*topology.CacheLineBytes), topology.MakeCPU(hn, 0, 0)).Hypernode, topology.CacheLineBytes)
		t += sim.Cycles(s.P.SCIListVisit)
		for _, cpu := range s.dirs[hn].PurgeLine(victim) {
			s.caches[cpu].Invalidate(victim)
			s.stats.InvalsReceived++
		}
	}
	s.bufferFIFO[hn] = fifo
	return t
}

// ring maps a home functional unit to its SCI ring (ring 0 for
// everything under the single-ring ablation).
func (s *System) ring(fu int) int {
	if s.SingleRing {
		return 0
	}
	return fu
}

// purgeRemote walks the SCI sharing list of key, invalidating the
// buffered copy (and any cached copies) in every hypernode except keep
// (-1 purges all). The walk is serial, as SCI prescribes. Invalidation
// times of remote CPUs are appended to rep.
func (s *System) purgeRemote(now sim.Cycles, fromHN, ringIdx int, key topology.LineKey, keep int, rep *Report) sim.Cycles {
	var victims []int
	if keep < 0 {
		victims = s.SCI.Purge(key)
	} else {
		victims = s.SCI.PurgeExcept(key, keep)
	}
	t := now
	at := fromHN
	for _, hn := range victims {
		t = s.Rings.Send(t, ringIdx, at, hn, topology.CacheLineBytes)
		t += sim.Cycles(s.P.SCIListVisit)
		t = s.killAll(t, key, s.dirs[hn].PurgeLine(key), rep)
		at = hn
	}
	return t
}

// crossbar books a traversal between two FU ports of a hypernode.
func (s *System) crossbar(now sim.Cycles, hn, srcFU, dstFU int, dur sim.Cycles) sim.Cycles {
	return s.xbars[hn].Traverse(now, srcFU, dstFU, dur)
}

// UncachedRMW models an atomic read-modify-write on an uncached cell
// (the counting semaphores of the barrier primitive, paper §4.2): it
// bypasses the caches and serializes at the home memory bank.
func (s *System) UncachedRMW(now sim.Cycles, cpu topology.CPUID, sp topology.Space, addr topology.Addr) sim.Cycles {
	home := s.Home(sp, addr, cpu)
	myHN := cpu.Hypernode()
	var t sim.Cycles
	if home.Hypernode == myHN {
		t = now
		if home.FU != cpu.FU() {
			t = s.crossbar(t, myHN, cpu.FU(), home.FU, sim.Cycles(s.P.CrossbarTransit))
		}
	} else {
		ringIdx := s.ring(home.FU)
		t = s.crossbar(now, myHN, cpu.FU(), ringIdx, sim.Cycles(s.P.CrossbarTransit))
		t = s.Rings.RoundTrip(t, ringIdx, myHN, home.Hypernode, topology.CacheLineBytes)
		t += sim.Cycles(s.P.RemoteDirLookup)
	}
	bankDone := s.banks[home.Hypernode][home.FU].Reserve(t, sim.Cycles(s.P.UncachedAccess))
	s.ctr.rmws.Inc()
	s.ctr.rmwCycles.Add(int64(bankDone - now))
	return bankDone
}

// TotalCounters returns the machine-wide tally.
func (s *System) TotalCounters() Counters { return s.stats }
