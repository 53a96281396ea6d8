package fem

import (
	"fmt"

	"spp1000/internal/c90"
	"spp1000/internal/machine"
	"spp1000/internal/parsim"
	"spp1000/internal/perfmodel"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// UsefulFlopsPerPoint is the paper's conversion factor: the minimal
// (C90 hpm-measured) 437 floating-point operations per point update
// (§5.2.2), used to express rates as "useful Mflop/s" regardless of how
// many operations a particular coding actually spends.
const UsefulFlopsPerPoint = 437

// Coding selects one of the two codings of the same numerics that
// Fig. 7 compares.
type Coding int

const (
	// GatherScatter is the parallel coding (curve small1/large):
	// indirect gathers and scatter-adds, compiled by the parallelizing
	// compiler whose serial code generation the paper found weak
	// (0.042 point-updates/µs on one CPU).
	GatherScatter Coding = iota
	// VectorStyle is the second coding (curve small2): vector-style
	// loops with redundant flux evaluation at the vertices — more
	// operations but better code and streaming access
	// (0.072 point-updates/µs on one CPU).
	VectorStyle
)

func (c Coding) String() string {
	if c == VectorStyle {
		return "vector-style"
	}
	return "gather-scatter"
}

// codingCosts are the per-element execution parameters of a coding,
// calibrated to the paper's measured single-CPU point-update rates.
type codingCosts struct {
	elemFlops   int64
	elemDivides int64
	elemIntOps  int64 // indirect addressing + compiler overhead
	elemHits    int64
	// linesPerElem is the new cache-line traffic per element of the
	// Morton-ordered sweep (point state + accumulators).
	linesPerElem float64
	pointFlops   int64
	pointHits    int64
}

func costs(c Coding) codingCosts {
	if c == VectorStyle {
		return codingCosts{
			elemFlops: 300, elemDivides: 2, elemIntOps: 180, elemHits: 120,
			linesPerElem: 4,
			pointFlops:   40, pointHits: 30,
		}
	}
	return codingCosts{
		elemFlops: 220, elemDivides: 2, elemIntOps: 640, elemHits: 80,
		linesPerElem: 3,
		pointFlops:   40, pointHits: 30,
	}
}

// Result is one timed FEM run.
type Result struct {
	Grid    [2]int
	Coding  Coding
	Procs   int
	Steps   int
	Seconds float64
	// PointUpdatesPerUs is the paper's primary rate metric.
	PointUpdatesPerUs float64
	// UsefulMflops = PointUpdatesPerUs × 437.
	UsefulMflops float64
}

func (r Result) String() string {
	return fmt.Sprintf("fem %dx%d %v p=%d: %.4f pt/µs, %.1f useful Mflop/s",
		r.Grid[0], r.Grid[1], r.Coding, r.Procs, r.PointUpdatesPerUs, r.UsefulMflops)
}

// DataPlacement selects where the mesh arrays live.
type DataPlacement int

const (
	// HostedNearShared is what the paper's runs had: everything
	// near-shared on hypernode 0, because "neither node-private nor
	// block-shared modes were operational, limiting control of memory
	// locality" (§6).
	HostedNearShared DataPlacement = iota
	// BlockSharedPartition is the placement the paper wanted: each
	// thread's partition block-distributed onto its own hypernode, so
	// only partition-boundary traffic crosses the rings.
	BlockSharedPartition
)

func (p DataPlacement) String() string {
	if p == BlockSharedPartition {
		return "block-shared"
	}
	return "near-shared@hn0"
}

// chunkCycles computes thread tid's per-step compute cycles from the
// coding's per-element costs and the thread's data placement. remote
// marks a thread whose CPU lives off hypernode 0, where the paper's
// near-shared-hosted mesh arrays reside; its partition's state crosses
// the rings every step.
func chunkCycles(p topology.Params, grid [2]int, coding Coding, procs, tid int, placement DataPlacement, remote bool) int64 {
	points := grid[0] * grid[1]
	elements := 2 * points
	cc := costs(coding)

	// Point-state working set: U, Res, Diss (4 vars × 8 B × 3 arrays).
	stateBytes := int64(points) * NVars * 8 * 3
	capFrac := perfmodel.CapacityMissFraction(stateBytes, topology.CacheBytes)
	stateLines := stateBytes / topology.CacheLineBytes

	lo := tid * elements / procs
	hi := (tid + 1) * elements / procs
	ne := int64(hi - lo)
	np := int64((tid+1)*points/procs - tid*points/procs)

	var c perfmodel.Chunk
	// Timestep reduction sweep (global max — communication class 1).
	c.Flops += np * 12
	c.Divides += np
	c.CacheHits += np * 5
	// Element phase: gather + flux + scatter-add (classes 2 and 3).
	c.Flops += ne * cc.elemFlops
	c.Divides += ne * cc.elemDivides
	c.IntOps += ne * cc.elemIntOps
	c.CacheHits += ne * cc.elemHits
	// Point phase.
	c.Flops += np * cc.pointFlops
	c.CacheHits += np * cc.pointHits

	// Morton-ordered sweeps: new-line traffic per element, scaled
	// by how much of the point state stays cache-resident.
	misses := int64(float64(ne) * cc.linesPerElem * (0.3 + 0.7*capFrac))
	c.HypernodeMisses += misses
	switch {
	case placement == BlockSharedPartition:
		// Partition homed with its thread: only the partition
		// boundary (shared points between adjacent Morton ranges
		// on different hypernodes) crosses the rings.
		if remote {
			c.GlobalMisses += stateLines / int64(elements/64+1)
		}
	case remote:
		// Remote threads hit their global-buffer copies, but every
		// line of their partition must be re-imported over the
		// rings each step (the state is rewritten by the point
		// phase, invalidating the buffered copies).
		c.GlobalMisses += stateLines * ne / int64(elements)
	}
	return perfmodel.Cycles(p, c)
}

// Run times the FEM application on the simulated machine. The mesh
// arrays are near-shared hosted on hypernode 0 — the paper notes that
// node-private and block-shared placement were not yet operational
// (§6), so threads on the second hypernode import their partition's
// state over the rings every step. That asymmetry is what produces the
// non-monotonic dip between 8 and 9 processors in Fig. 7.
func Run(grid [2]int, coding Coding, procs, steps int) (Result, error) {
	return RunPlaced(grid, coding, procs, steps, HostedNearShared)
}

// RunPlaced is Run with an explicit data placement — the simulator can
// measure the configuration the 1995 system software could not yet
// provide.
func RunPlaced(grid [2]int, coding Coding, procs, steps int, placement DataPlacement) (Result, error) {
	return run(threads.NewEngine, grid, coding, procs, steps, placement)
}

// RunPar is Run on the hypernode-partitioned (PDES) engine: the same
// per-thread work model and three-barrier step structure, but one
// share-nothing kernel per hypernode (internal/parsim), so the
// simulation scales across host cores up to the full 128-CPU machine.
// Output is byte-identical at every parsim worker count.
func RunPar(grid [2]int, coding Coding, procs, steps int) (Result, error) {
	return run(parsim.NewEngine, grid, coding, procs, steps, HostedNearShared)
}

// run is FEM's one step loop, on the engine that newEngine builds just
// large enough for the team.
func run(newEngine func(hn int) (threads.Engine, error), grid [2]int, coding Coding, procs, steps int, placement DataPlacement) (Result, error) {
	e, err := newEngine(topology.HypernodesFor(procs))
	if err != nil {
		return Result{}, err
	}
	cycles := make([]int64, procs)
	for tid := range cycles {
		cpu := threads.CPUFor(e.Topology(), threads.HighLocality, tid, procs)
		cycles[tid] = chunkCycles(e.Params(), grid, coding, procs, tid, placement, cpu.Hypernode() != 0)
	}
	bar, err := e.TeamBarrier(procs)
	if err != nil {
		return Result{}, err
	}
	elapsed, err := e.RunTeam(procs, func(th *machine.Thread, tid int) {
		for s := 0; s < steps; s++ {
			// dt reduction barrier, element phase, point phase.
			th.ComputeCycles(cycles[tid] / 3)
			bar.Wait(th, tid)
			th.ComputeCycles(cycles[tid] - 2*(cycles[tid]/3))
			bar.Wait(th, tid)
			th.ComputeCycles(cycles[tid] / 3)
			bar.Wait(th, tid)
		}
	})
	if err != nil {
		return Result{}, err
	}
	points := grid[0] * grid[1]
	sec := elapsed.Seconds()
	updates := float64(points) * float64(steps)
	rate := updates / (sec * 1e6)
	return Result{
		Grid: grid, Coding: coding, Procs: procs, Steps: steps,
		Seconds:           sec,
		PointUpdatesPerUs: rate,
		UsefulMflops:      rate * UsefulFlopsPerPoint,
	}, nil
}

// C90Reference reports the C90 single-head useful rate: the paper's
// optimized C90 coding ran 0.57 point updates/µs ≈ 250 useful Mflop/s.
func C90Reference() (pointUpdatesPerUs, usefulMflops float64) {
	cray := c90.Default()
	rate := cray.Rate(c90.FEM)     // ≈293 hpm Mflop/s
	useful := rate * 250.0 / 293.0 // the paper's useful-vs-hpm ratio
	return useful / UsefulFlopsPerPoint, useful
}
