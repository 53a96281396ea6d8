package ppm

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/runner"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Per-sweep-cell operation counts of the PPM kernel in ppm.go:
// four-variable reconstruction with limiting, one HLL flux, and the
// conservative update with the primitive/conserved conversions. AMR's
// blocks run the same kernel and charge the same counts.
const (
	SweepCellFlops   = 260
	SweepCellDivides = 6
	SweepCellIntOps  = 150
	SweepCellHits    = 90
	// sweepCellLines is the streaming line traffic per processed cell
	// (pencil load/store plus flux scratch).
	sweepCellLines = 2.2
	// rowFixedCycles is the per-pencil setup cost (copies in/out,
	// boundary edge handling).
	rowFixedCycles = 900
	wavespeedFlops = 12
)

// ZoneFlops is the counted floating-point work per interior zone per
// full timestep (both sweeps + wavespeed scan), used for Mflop/s.
func ZoneFlops() int64 { return 2*SweepCellFlops + 2*SweepCellDivides*2 + wavespeedFlops }

// Config is one Table 2 configuration.
type Config struct {
	W, H   int // grid zones
	TX, TY int // tile decomposition
}

func (c Config) String() string {
	return fmt.Sprintf("%dx%d grid, %dx%d tiles", c.W, c.H, c.TX, c.TY)
}

// The Table 2 configurations.
var (
	Table2A = Config{120, 480, 4, 16}  // 30×30 tiles
	Table2B = Config{120, 480, 12, 48} // 10×10 tiles
	Table2C = Config{240, 960, 4, 16}  // 60×60 tiles
)

// Result is one timed PPM run.
type Result struct {
	Config  Config
	Procs   int
	Steps   int
	Seconds float64
	Mflops  float64
}

func (r Result) String() string {
	return fmt.Sprintf("ppm %v p=%d: %.3f s/step, %.1f Mflop/s",
		r.Config, r.Procs, r.Seconds/float64(r.Steps), r.Mflops)
}

// tileChunk models the per-step work of one tile, exactly mirroring the
// loop structure of Grid.SweepX/SweepY: the x-sweep processes every
// padded row (the redundant ghost-frame computation that makes small
// tiles less efficient), the y-sweep the interior columns.
func tileChunk(tw, th, hypernodes int) perfmodel.Chunk {
	xCells := int64((th + 2*Pad) * (tw + 2*Pad - 6))
	yCells := int64(tw * (th + 2))
	cells := xCells + yCells
	rows := int64((th + 2*Pad) + tw)
	zones := int64(tw * th)

	c := perfmodel.Chunk{
		Flops:     cells*SweepCellFlops + zones*wavespeedFlops,
		Divides:   cells * SweepCellDivides,
		IntOps:    cells*SweepCellIntOps + rows*rowFixedCycles,
		CacheHits: cells * SweepCellHits,
	}
	c.LocalMisses += int64(float64(cells) * sweepCellLines)

	// Direct-mapped conflict misses: the sweeps keep ~9 same-sized
	// arrays (primitives, conserved scratch, fluxes) live per tile, and
	// with a direct-mapped cache their same-index lines evict each
	// other at a rate that grows with the tile footprint. Calibrated
	// against the paper's three tile sizes (10×10, 30×30, 60×60 →
	// 23.8, 29.9, ≈29.6 Mflop/s per CPU).
	conflict := 0.115 * (float64(tw) - 7)
	if conflict < 0 {
		conflict = 0
	}
	if conflict > 4.5 {
		conflict = 4.5
	}
	c.LocalMisses += int64(float64(cells) * conflict)

	GhostExchange(tw, th, hypernodes, &c)
	return c
}

// GhostExchange adds one tw×th tile's ghost-frame fill to c: the frame
// cells are copied from neighbouring tiles' interiors — shared-memory
// traffic over the crossbar, part of it over the rings when the team
// spans hypernodes.
func GhostExchange(tw, th, hypernodes int, c *perfmodel.Chunk) {
	ghostCells := int64((tw+2*Pad)*(th+2*Pad) - tw*th)
	ghostLines := ghostCells * 4 * 8 / topology.CacheLineBytes
	var imports int64
	if hypernodes > 1 {
		imports = ghostLines / 4 // boundary tiles' remote neighbours
	}
	c.GlobalMisses += imports
	c.HypernodeMisses += ghostLines - imports
}

// Run times one Table 2 configuration on the simulated machine: tiles
// are dealt to threads in blocks, each step is ghost exchange → global
// dt reduction (a barrier) → per-tile sweeps → step barrier.
func Run(cfg Config, procs, steps int) (Result, error) {
	nt := cfg.TX * cfg.TY
	if nt%procs != 0 {
		return Result{}, fmt.Errorf("ppm: %d tiles not divisible by %d procs", nt, procs)
	}
	hn := topology.HypernodesFor(procs)
	m, err := machine.New(machine.Config{Hypernodes: hn})
	if err != nil {
		return Result{}, err
	}
	tw, th := cfg.W/cfg.TX, cfg.H/cfg.TY
	perThread := nt / procs
	chunk := tileChunk(tw, th, hn)
	tileCycles := perfmodel.Cycles(m.P, chunk)
	// dt reduction scan: part of the tile sweep chunk already; the
	// reduction itself is a barrier plus a tiny serial combine.
	bar := threads.NewBarrier(m, procs, 0)
	elapsed, err := threads.RunTeam(m, procs, threads.HighLocality, func(th_ *machine.Thread, tid int) {
		for s := 0; s < steps; s++ {
			// Exchange + local wavespeed scan happen per tile within
			// the chunk; two barriers bound the dt reduction.
			bar.Wait(th_)
			th_.ComputeCycles(int64(perThread) * tileCycles)
			bar.Wait(th_)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := ZoneFlops() * int64(cfg.W*cfg.H) * int64(steps)
	return Result{
		Config: cfg, Procs: procs, Steps: steps,
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}, nil
}

// Table2 reproduces the paper's Table 2 rows. Each tiling × processor
// count is an independent simulation; the rows run on the host worker
// pool and come back in table order.
func Table2(steps int) ([]Result, error) {
	rows := []struct {
		cfg   Config
		procs int
	}{
		{Table2A, 1}, {Table2A, 2}, {Table2A, 4}, {Table2A, 8},
		{Table2B, 1}, {Table2B, 2}, {Table2B, 4}, {Table2B, 8},
		{Table2A, 1}, {Table2C, 4},
	}
	return runner.Map(len(rows), func(i int) (Result, error) {
		return Run(rows[i].cfg, rows[i].procs, steps)
	})
}
