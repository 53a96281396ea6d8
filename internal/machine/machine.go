// Package machine is the public façade of the SPP-1000 simulator: it
// assembles the event kernel, topology, and memory system into a Machine
// on which simulated threads execute. Programs obtain Threads bound to
// CPUs, touch memory through Read/Write (playing the full coherence
// machinery), and charge bulk numerical work through Compute. All times
// are virtual: cycles of the simulated 100 MHz clock.
package machine

import (
	"fmt"

	"spp1000/internal/counters"
	"spp1000/internal/memsys"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
	"spp1000/internal/trace"
)

// Config selects a machine variant.
type Config struct {
	// Hypernodes is the number of hypernodes (1..16); 8 CPUs each.
	Hypernodes int
	// Params overrides the calibrated machine parameters (nil = default).
	Params *topology.Params
	// CacheLines scales down the per-CPU cache for fine-grained
	// experiments (0 = the architectural 32768 lines).
	CacheLines int
	// NodeIndex is the global hypernode number of this machine's first
	// hypernode. A monolithic machine leaves it 0; a partitioned cluster
	// (internal/parsim) builds one 1-hypernode machine per simulated
	// hypernode and sets NodeIndex so per-hypernode counter groups
	// (cache.hn<N>, directory.hn<N>, …) stay globally distinct when the
	// per-partition registries are merged into one snapshot.
	NodeIndex int
}

// Machine is one simulated SPP-1000.
type Machine struct {
	K    *sim.Kernel
	Topo topology.Topology
	P    topology.Params
	Mem  *memsys.System
	// Trace, when non-nil, records every thread's busy / memory /
	// synchronization intervals for timeline rendering.
	Trace *trace.Recorder
	// Counters, when non-nil, is the machine's PMU-style counter
	// registry, wired through every memory-system component and the
	// thread runtime. Nil (the default) costs one pointer check per
	// counted event. Enable with EnableCounters; machines built while a
	// counters.Collector is attached enable themselves.
	Counters *counters.Registry

	nodeIndex int // global hypernode number of hypernode 0 (Config.NodeIndex)
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	topo, err := topology.New(cfg.Hypernodes)
	if err != nil {
		return nil, err
	}
	p := topology.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	m := &Machine{
		K:         sim.NewKernel(),
		Topo:      topo,
		P:         p,
		Mem:       memsys.New(topo, p, cfg.CacheLines),
		nodeIndex: cfg.NodeIndex,
	}
	if counters.Active() {
		m.EnableCounters()
	}
	return m, nil
}

// EnableCounters attaches a PMU-style counter registry to the machine
// (idempotent) and returns it. Counter totals accumulate in
// m.Counters and are published to any attached counters.Collector
// sinks when Run completes. Enabling counters never changes simulated
// timings — the counters live outside virtual time.
func (m *Machine) EnableCounters() *counters.Registry {
	if m.Counters == nil {
		m.Counters = counters.NewRegistry()
		m.Mem.AttachCountersBase(m.Counters, m.nodeIndex)
	}
	return m.Counters
}

// Alloc registers a memory object of the given class and returns its
// space handle. host is the hosting hypernode for NearShared data and
// blockBytes the distribution unit for BlockShared data.
func (m *Machine) Alloc(name string, class topology.Class, host, blockBytes int) topology.Space {
	return m.Mem.Alloc(name, class, host, blockBytes)
}

// Thread is a flow of control bound to one CPU of the machine.
type Thread struct {
	M   *Machine
	P   *sim.Proc
	CPU topology.CPUID
	// slowdown stretches Compute time (OS intrusion on a saturated
	// machine; 0 = none).
	slowdown float64

	// Per-thread time breakdown, the CXpa-style instrumentation the
	// paper's §6 credits for its optimization work. Busy accumulates
	// compute, MemStall memory-access latency, SyncWait time parked in
	// synchronization primitives (filled by the threads package).
	Busy     sim.Cycles
	MemStall sim.Cycles
	SyncWait sim.Cycles

	// spin is the semaphore the thread parks on while spinning in a
	// barrier, and spinV its V method value; both are made on first
	// use (see Spin).
	spin  *sim.Semaphore
	spinV func()
	// inv backs the Invalidated list of the report Write returns.
	inv []memsys.Invalidation
}

// Spawn starts fn as a simulated thread on the given CPU.
func (m *Machine) Spawn(name string, cpu topology.CPUID, fn func(th *Thread)) *Thread {
	return m.SpawnAt(m.K.Now(), name, cpu, fn)
}

// SpawnAt is Spawn starting at absolute virtual time t.
func (m *Machine) SpawnAt(t sim.Cycles, name string, cpu topology.CPUID, fn func(th *Thread)) *Thread {
	th := &Thread{M: m, CPU: cpu}
	th.P = m.K.SpawnAt(t, name, func(p *sim.Proc) { fn(th) })
	return th
}

// Run executes the simulation to completion, then publishes any counter
// deltas to the attached collector sinks.
func (m *Machine) Run() error {
	err := m.K.Run()
	counters.Publish(m.Counters)
	return err
}

// Now reports the current virtual time.
func (m *Machine) Now() sim.Cycles { return m.K.Now() }

// SetSlowdown stretches this thread's Compute durations by factor f
// (e.g. 0.04 = 4% stolen by the OS).
func (th *Thread) SetSlowdown(f float64) { th.slowdown = f }

// Now reports the thread's current virtual time.
func (th *Thread) Now() sim.Cycles { return th.P.Now() }

// Read plays a load of addr in space sp through the memory system,
// blocking the thread for the access latency.
func (th *Thread) Read(sp topology.Space, addr topology.Addr) memsys.Report {
	rep := th.M.Mem.Access(th.P.Now(), th.CPU, sp, addr, false)
	th.MemStall += rep.Done - th.P.Now()
	th.M.Trace.Record(th.P.Name(), trace.Mem, th.P.Now(), rep.Done)
	th.P.Delay(rep.Done - th.P.Now())
	return rep
}

// Write plays a store, blocking for the full ownership acquisition.
// The report's Invalidated list is the thread's own buffer: it stays
// valid until the thread's next Write, which reuses it.
func (th *Thread) Write(sp topology.Space, addr topology.Addr) memsys.Report {
	rep := th.M.Mem.AccessInto(th.P.Now(), th.CPU, sp, addr, true, th.inv)
	th.inv = rep.Invalidated
	th.MemStall += rep.Done - th.P.Now()
	th.M.Trace.Record(th.P.Name(), trace.Mem, th.P.Now(), rep.Done)
	th.P.Delay(rep.Done - th.P.Now())
	return rep
}

// RMW plays an uncached atomic read-modify-write (semaphore cell).
func (th *Thread) RMW(sp topology.Space, addr topology.Addr) {
	done := th.M.Mem.UncachedRMW(th.P.Now(), th.CPU, sp, addr)
	th.MemStall += done - th.P.Now()
	th.M.Trace.Record(th.P.Name(), trace.Mem, th.P.Now(), done)
	th.P.Delay(done - th.P.Now())
}

// ComputeCycles blocks the thread for n cycles of pure computation,
// stretched by any configured slowdown.
func (th *Thread) ComputeCycles(n int64) {
	if n <= 0 {
		return
	}
	if th.slowdown > 0 {
		n = int64(float64(n) * (1 + th.slowdown))
	}
	th.Busy += sim.Cycles(n)
	th.M.Trace.Record(th.P.Name(), trace.Busy, th.P.Now(), th.P.Now()+sim.Cycles(n))
	th.P.Delay(sim.Cycles(n))
}

// Delay blocks the thread for d cycles (uninstrumented time).
func (th *Thread) Delay(d sim.Cycles) { th.P.Delay(d) }

// Synchronize runs wait, which parks the thread in a synchronization
// primitive, and charges to SyncWait the time wait spends beyond
// compute and memory stall (the CXpa breakdown). It returns that wait.
func (th *Thread) Synchronize(wait func()) sim.Cycles {
	t0, busy0, mem0 := th.Now(), th.Busy, th.MemStall
	wait()
	w := (th.Now() - t0) - (th.Busy - busy0) - (th.MemStall - mem0)
	th.SyncWait += w
	return w
}

// Spin returns the thread's spin semaphore and its release func (the
// semaphore's V), made on the first call and the same on every later
// one. Barriers park a waiting thread on it and schedule release to
// free it, so a barrier episode allocates neither. Sharing one
// semaphore across barriers is safe because a thread parks in at most
// one barrier at a time, and each wait consumes exactly the one
// release it is sent.
func (th *Thread) Spin() (sem *sim.Semaphore, release func()) {
	if th.spin == nil {
		th.spin = th.M.K.NewSemaphore("spin", 0)
		th.spinV = th.spin.V
	}
	return th.spin, th.spinV
}

// String identifies the thread.
func (th *Thread) String() string {
	return fmt.Sprintf("%s@%v", th.P.Name(), th.CPU)
}
