package nbody

import (
	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/topology"
)

// RunDynamic implements the paper's stated future work (§7): "more
// dynamic load balancing and lightweight threads needs to be developed
// and implemented on this system to ease the programming burden."
//
// Instead of the static block partition of Run, threads self-schedule:
// each grabs the next unclaimed microblock by an atomic fetch-and-add on
// an uncached shared counter (the same primitive the barrier's counting
// semaphore uses), computes its forces, and returns for more. Balance
// improves — the heavy central blocks of the Morton-sorted Plummer
// sphere no longer pin to one thread — at the price of one uncached RMW
// per block, which serializes at the counter's home memory bank.
func RunDynamic(w *Workload, procs, hypernodes, steps int) (Result, error) {
	return run(w, procs, hypernodes, steps, func(m *machine.Machine) func(*machine.Thread, int) {
		counter := m.Alloc("worklist", topology.NearShared, 0, 0)
		// Per-microblock force cycles: pure traversal work. The
		// ring-import share is charged once per thread per step, not
		// per block.
		blockCycles := make([]int64, blocks)
		for b, inter := range w.MicroBlocks {
			blockCycles[b] = perfmodel.Cycles(m.P, forceWork(w, inter))
		}
		importCycles := perfmodel.Cycles(m.P, importChunk(w, hypernodes, procs))

		// The shared work-list cursor, advanced in virtual time by the
		// threads' RMWs. Every thread finds the list empty exactly once
		// per step; the last to do so rewinds it for the next step. The
		// cursor is plain Go state, so the rewind adds no event.
		next, drained := 0, 0
		return func(th *machine.Thread, tid int) {
			th.ComputeCycles(importCycles)
			for {
				th.RMW(counter, 0) // fetch-and-add on the work cursor
				if next >= blocks {
					break
				}
				b := next
				next++
				th.ComputeCycles(blockCycles[b])
			}
			if drained++; drained == procs {
				next, drained = 0, 0
			}
		}
	})
}

// ImbalanceRatio reports max/mean of the static per-thread interaction
// loads for a team size — the quantity dynamic scheduling removes.
func (w *Workload) ImbalanceRatio(procs int) (float64, error) {
	loads, err := w.staticLoads(procs)
	if err != nil {
		return 0, err
	}
	var max, sum int64
	for _, load := range loads {
		sum += load
		if load > max {
			max = load
		}
	}
	mean := float64(sum) / float64(procs)
	if mean == 0 {
		return 1, nil
	}
	return float64(max) / mean, nil
}
