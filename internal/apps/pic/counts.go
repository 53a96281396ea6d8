package pic

import (
	"math"

	"spp1000/internal/perfmodel"
	"spp1000/internal/topology"
)

// Operation counts of the four PIC phases of §5.1.1: per particle for
// the cloud-in-cell deposit over its 8 neighbouring cells, the
// trilinear gather of the three field components and the leapfrog push
// with periodic wrap; per mesh cell for the field solve's k-space loop.
// Floating-point adds and multiplies count one flop each, as the
// PA-7100 issues them; floors, wraps and cell-index arithmetic are
// charged as IntOps.
const (
	depositFlops  = 35 // weight products and scatter-adds
	depositIntOps = 30 // floor/wrap and 8 cell-index computations
	gatherFlops   = 64 // weights plus 3-field trilinear interpolation
	gatherIntOps  = 34
	pushFlops     = 16 // leapfrog update and periodic wrap
	pushIntOps    = 12

	// Per-cell work in the k-space loop of the solve.
	solveCellFlops = 14
)

// wordBytes is sizeof(float64).
const wordBytes = 8

// Model computes the per-thread per-step work chunks of a PIC run.
// It captures the machine-facing structure of the computation:
//
//   - particle arrays are block-partitioned, so particle streaming is
//     served by local memory at stream-miss rates;
//   - grid arrays are far-shared; the fields are rewritten every step,
//     so each CPU cold-misses every grid line it touches once per step,
//     and capacity misses appear when the per-CPU grid footprint
//     exceeds the cache (the paper's deliberate problem-size effect);
//   - in the PVM variant the grids are replicated per task in private
//     memory, so the footprint is measured against one cache regardless
//     of task count, and every grid line is locally cold each step.
type Model struct {
	Size  Size
	Procs int
	// Hypernodes the team spans (for the local/global miss split).
	Hypernodes int
	// Replicated marks the PVM variant's private replicated grids.
	Replicated bool
}

// NewModel builds the work model for a run.
func NewModel(size Size, procs, hypernodes int, replicated bool) Model {
	return Model{Size: size, Procs: procs, Hypernodes: hypernodes, Replicated: replicated}
}

func (m Model) particlesPerThread() int64 {
	return int64(m.Size.Particles() / m.Procs)
}

// gridLines is the cache-line count of n cells of float64.
func gridLines(cells int) int64 {
	return int64(cells) * wordBytes / topology.CacheLineBytes
}

// splitGrid classifies grid misses by service level. For far-shared,
// read-mostly grid data the SCI global cache buffer means each remote
// line crosses the rings only once per step per hypernode; every other
// miss — cold re-touches and capacity re-fetches — is served at
// hypernode (crossbar / buffer) cost. The per-thread global charge is
// therefore the hypernode's share of ring imports divided among its
// threads, not a fixed fraction of all misses.
func (m Model) splitGrid(misses, lineFootprint int64, c *perfmodel.Chunk) {
	if m.Replicated {
		// Replicated private grids: all local.
		c.LocalMisses += misses
		return
	}
	imports := min(perfmodel.RingImports(lineFootprint, m.Hypernodes, m.Procs), misses)
	c.GlobalMisses += imports
	c.HypernodeMisses += misses - imports
}

// DepositChunk is one thread's share of the charge deposition.
func (m Model) DepositChunk() perfmodel.Chunk {
	np := m.particlesPerThread()
	cells := m.Size.Cells()
	c := perfmodel.Chunk{
		Flops:  np * depositFlops,
		IntOps: np * depositIntOps,
		// 4 particle words read, 8 grid read-modify-writes.
		CacheHits: np * 20,
	}
	// Particle stream: x,y,z,q = 4 words per particle, sequential.
	c.LocalMisses += int64(float64(np*4*wordBytes) / float64(topology.CacheLineBytes))
	// Private density partial: rewritten every step, so each line the
	// thread touches is cold once per step; random particle order
	// touches essentially the whole grid when particles outnumber cells.
	touched := gridLines(cells)
	if t := np; t < int64(cells) {
		touched = gridLines(int(t))
	}
	c.LocalMisses += touched
	// Capacity misses when the partial does not fit the cache: the 8
	// CIC cells of one particle span about 3 distinct lines.
	capFrac := perfmodel.CapacityMissFraction(int64(cells)*wordBytes, topology.CacheBytes)
	c.LocalMisses += int64(float64(np*3) * capFrac)
	return c
}

// ReduceChunk is one thread's share of combining the per-thread density
// partials into the shared mesh (log-tree reduction).
func (m Model) ReduceChunk() perfmodel.Chunk {
	cells := int64(m.Size.Cells())
	rounds := int64(0)
	for p := 1; p < m.Procs; p *= 2 {
		rounds++
	}
	perThread := cells / int64(m.Procs)
	c := perfmodel.Chunk{
		Flops:     perThread * rounds, // one add per cell per round
		IntOps:    perThread * rounds,
		CacheHits: perThread * rounds * 2,
	}
	// Each round reads another thread's partial: remote traffic.
	miss := int64(float64(perThread*rounds*wordBytes) / float64(topology.CacheLineBytes))
	if m.Replicated {
		c.LocalMisses += miss
	} else {
		m.splitGrid(miss, gridLines(int(cells)), &c)
	}
	return c
}

// SolveChunk is one thread's share of the FFT field solve; with
// serial=true the whole solve is charged (the PVM variant solves at
// task 0 while the others wait).
func (m Model) SolveChunk(serial bool) perfmodel.Chunk {
	nx, ny, nz := m.Size.NX, m.Size.NY, m.Size.NZ
	cells := int64(m.Size.Cells())
	share := int64(m.Procs)
	if serial {
		share = 1
	}
	// One forward + three inverse 3-D transforms plus the k-space loop.
	fl := 4*fftFlops3(nx, ny, nz) + cells*solveCellFlops
	c := perfmodel.Chunk{
		Flops:     fl / share,
		IntOps:    fl / share / 4,
		CacheHits: 4 * 3 * 2 * cells / share, // 4 grids × 3 passes × r/w
	}
	// Transform passes sweep complex grids (16 B/point); the y and z
	// passes are strided, so cross-line traffic dominates: charge one
	// miss per line per pass on the non-x passes plus capacity effects.
	complexBytes := cells * 2 * wordBytes
	sweepLines := complexBytes / topology.CacheLineBytes
	misses := 4 * 2 * sweepLines / share // 2 strided passes per transform
	capFrac := perfmodel.CapacityMissFraction(complexBytes, topology.CacheBytes)
	misses += int64(float64(4*cells/share) * capFrac)
	m.splitGrid(misses, 4*sweepLines, &c)
	return c
}

// GatherPushChunk is one thread's share of field gather plus push.
func (m Model) GatherPushChunk() perfmodel.Chunk {
	np := m.particlesPerThread()
	cells := m.Size.Cells()
	c := perfmodel.Chunk{
		Flops:  np * (gatherFlops + pushFlops),
		IntOps: np * (gatherIntOps + pushIntOps),
		// 24 field reads + 6 particle words read + 6 written.
		CacheHits: np * 36,
	}
	// Particle stream: 6 words read + 6 written per particle.
	c.LocalMisses += int64(float64(np*12*wordBytes) / float64(topology.CacheLineBytes))
	// Field arrays rewritten by the solve each step: cold misses for
	// every E line touched (3 components), then capacity misses when
	// the 3-array footprint exceeds the cache. One particle's 8 CIC
	// cells span about 3 lines per component — 9 line touches.
	touched := 3 * gridLines(cells)
	if np < int64(cells) {
		touched = 3 * gridLines(int(np))
	}
	fieldMisses := touched
	capFrac := perfmodel.CapacityMissFraction(3*int64(cells)*wordBytes, topology.CacheBytes)
	fieldMisses += int64(float64(np*9) * capFrac)
	m.splitGrid(fieldMisses, 3*gridLines(cells), &c)
	return c
}

// FlopsPerStep is the machine-independent operation count of one full
// step over all particles (used for Mflop/s reporting and the C90
// reference).
func (m Model) FlopsPerStep() int64 {
	np := int64(m.Size.Particles())
	cells := int64(m.Size.Cells())
	fl := np*(depositFlops+gatherFlops+pushFlops) +
		4*fftFlops3(m.Size.NX, m.Size.NY, m.Size.NZ) + cells*solveCellFlops +
		cells // reduction adds
	return fl
}

// fftFlops estimates the floating-point operations of one n-point
// complex FFT (the standard 5 n log2 n count).
func fftFlops(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(5 * float64(n) * math.Log2(float64(n)))
}

// fftFlops3 estimates the operations of one full 3-D transform: a 1-D
// transform along every line of each axis.
func fftFlops3(nx, ny, nz int) int64 {
	return int64(ny*nz)*fftFlops(nx) + int64(nx*nz)*fftFlops(ny) + int64(nx*ny)*fftFlops(nz)
}
