package amr

import (
	"fmt"

	"spp1000/internal/apps/ppm"
	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Result is one timed AMR run on the simulated machine.
type Result struct {
	Procs        int
	Steps        int
	Seconds      float64
	Mflops       float64
	LeafBlocks   int // at the end of the run
	MaxLevel     int
	ZoneUpdates  int64
	UniformZones int64 // equivalent uniform-fine zone updates
}

func (r Result) String() string {
	return fmt.Sprintf("amr p=%d: %.3f s, %.1f Mflop/s, %d leaves (max level %d), %.1fx fewer zones than uniform",
		r.Procs, r.Seconds, r.Mflops, r.LeafBlocks, r.MaxLevel,
		float64(r.UniformZones)/float64(r.ZoneUpdates))
}

// zoneFlops reuses the PPM per-zone operation counts (both sweeps).
const zoneFlops = 2 * ppm.SweepCellFlops

// Run evolves the domain `steps` steps while timing it on the simulated
// machine: each step, the leaf blocks (Morton-ordered by construction
// of the quadtree walk) are dealt round-robin to the team; ghost fills
// are shared-memory traffic; the regrid runs serially on thread 0 —
// the structure a PARAMESH-style port to the SPP-1000 would have.
// The physics advances for real; the machine time comes from playing
// each step's measured block count through the cost model.
func Run(d *Domain, procs, steps int) (Result, error) {
	hn := topology.HypernodesFor(procs)
	m, err := machine.New(machine.Config{Hypernodes: hn})
	if err != nil {
		return Result{}, err
	}

	// Per-block per-step cost (PPM sweeps over BlockSize² + ghost fill
	// traffic; ghost sources live on other threads' blocks → crossbar
	// or ring class).
	blockChunk := func() int64 {
		cells := int64((BlockSize + 2*ppm.Pad) * (BlockSize + 2))
		c := perfmodel.Chunk{
			Flops:     cells * ppm.SweepCellFlops * 2,
			Divides:   cells * ppm.SweepCellDivides,
			IntOps:    cells * ppm.SweepCellIntOps,
			CacheHits: cells * ppm.SweepCellHits,
		}
		c.LocalMisses = cells * 2
		ppm.GhostExchange(BlockSize, BlockSize, hn, &c)
		return perfmodel.Cycles(m.P, c)
	}()
	// Regrid cost per step charged serially: criterion scan per leaf.
	regridChunkPerLeaf := perfmodel.Cycles(m.P, perfmodel.Chunk{
		Flops:     BlockSize * BlockSize * 4,
		CacheHits: BlockSize * BlockSize * 2,
	})

	// Evolve the real physics, capturing the per-step leaf counts.
	leavesPerStep := make([]int, steps)
	var updates int64
	for s := 0; s < steps; s++ {
		d.Step()
		_, leaves := d.Blocks()
		leavesPerStep[s] = leaves
		updates += int64(leaves) * BlockSize * BlockSize
	}

	// Replay the step structure on the machine.
	bar := threads.NewBarrier(m, procs, 0)
	elapsed, err := threads.RunTeam(m, procs, threads.HighLocality, func(th *machine.Thread, tid int) {
		for s := 0; s < steps; s++ {
			leaves := leavesPerStep[s]
			if tid == 0 {
				th.ComputeCycles(int64(leaves) * regridChunkPerLeaf)
			}
			bar.Wait(th)
			mine := leaves / procs
			if tid < leaves%procs {
				mine++
			}
			th.ComputeCycles(int64(mine) * blockChunk)
			bar.Wait(th)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	_, leaves := d.Blocks()
	maxLvl := d.MaxLevel()
	uniform := int64(d.RootW*d.RootH*BlockSize*BlockSize) << (2 * uint(maxLvl)) * int64(steps)
	return Result{
		Procs: procs, Steps: steps, Seconds: sec,
		Mflops:       float64(updates*zoneFlops) / sec / 1e6,
		LeafBlocks:   leaves,
		MaxLevel:     maxLvl,
		ZoneUpdates:  updates,
		UniformZones: uniform,
	}, nil
}
