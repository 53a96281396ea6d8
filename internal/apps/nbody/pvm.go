package nbody

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/perfmodel"
	"spp1000/internal/pvm"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// The message-passing tree code (§5.3.2, Olson & Packer 1995): each
// task owns a particle block and a local tree; remote tree data needed
// by its traversals is packed, sent, and unpacked through PVM. The
// paper's finding: "The single processor performance of the code was
// quite good ... somewhat faster than that quoted above for the shared
// memory programming model ... The overheads of packing and sending
// messages, however, are prohibitive and overall performance is
// degraded relative to the shared memory version."
const (
	// pvmInterIntOps is below the shared-memory figure: the
	// distributed-memory code's inner loop walks task-private arrays
	// with no global-address translation.
	pvmInterIntOps = 12
	// packNodeCycles / unpackNodeCycles: marshaling one tree node into
	// or out of a message buffer.
	packNodeCycles   = 28
	unpackNodeCycles = 30
	// nodeReuse is how many of a task's interactions one imported
	// remote node serves on average.
	nodeReuse = 2
)

// pvmForceChunk is the per-task force work of the message-passing code:
// the same interactions, cheaper addressing, misses against the
// task-private tree copy.
func pvmForceChunk(w *Workload, inter int64) perfmodel.Chunk {
	c := perfmodel.Chunk{
		Flops:     inter * interFlops,
		Divides:   inter * interSqrts,
		IntOps:    inter * pvmInterIntOps,
		CacheHits: inter * interHits,
	}
	treeBytes := int64(w.TreeNodes) * NodeBytes
	missFrac := perfmodel.CapacityMissFraction(treeBytes, topology.CacheBytes) * treeReuse
	c.LocalMisses += int64(float64(inter*linesPerVisit) * missFrac)
	return c
}

// RunPVM times the message-passing tree code. Each step: every task
// packs and exchanges the tree data its peers' traversals need (the
// remote share of its interactions, derated by node reuse), then
// computes its forces, then a tag-0 round synchronizes the step.
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its two dedicated tests (queued on ROADMAP)
func RunPVM(w *Workload, procs, hypernodes, steps int) (Result, error) {
	if blocks%procs != 0 {
		return Result{}, fmt.Errorf("nbody: procs %d must divide %d", procs, blocks)
	}
	m, err := machine.New(machine.Config{Hypernodes: hypernodes})
	if err != nil {
		return Result{}, err
	}
	place := threads.HighLocality
	if hypernodes > 1 {
		place = threads.Uniform
	}

	per := blocks / procs
	loads := make([]int64, procs)
	for tid := 0; tid < procs; tid++ {
		for b := tid * per; b < (tid+1)*per; b++ {
			loads[tid] += w.MicroBlocks[b]
		}
	}
	// Remote interactions per task: the fraction of a task's traversal
	// that reaches other tasks' subtrees; zero when serial.
	remoteFrac := 0.5 * float64(procs-1) / float64(procs)

	forceCycles := make([]int64, procs)
	exchangeCycles := make([]int64, procs)
	importedNodes := make([]int64, procs)
	for tid := range forceCycles {
		forceCycles[tid] = perfmodel.Cycles(m.P, pvmForceChunk(w, loads[tid]))
		nodes := int64(float64(loads[tid]) * remoteFrac / nodeReuse)
		importedNodes[tid] = nodes
		exchangeCycles[tid] = nodes * (packNodeCycles + unpackNodeCycles)
	}
	buildCycles := perfmodel.Cycles(m.P, perfmodel.Chunk{
		Flops:       int64(w.N/procs) * buildFlopsPerBody,
		IntOps:      int64(w.N/procs) * buildIntOpsPerBody,
		LocalMisses: int64(w.N/procs) * 3,
	})

	sys := pvm.NewSystem(m)
	tasks := make([]*pvm.Task, procs)
	registered := m.K.NewSemaphore("registered", 0)
	ready := m.K.NewEvent("ready")

	elapsed, err := threads.RunTeam(m, procs, place, func(th *machine.Thread, tid int) {
		tasks[tid] = sys.AddTask(th)
		registered.V()
		if tid == 0 {
			for i := 0; i < procs; i++ {
				registered.P(th.P)
			}
			ready.Set()
		} else {
			ready.Wait(th.P)
		}
		right := (tid + 1) % procs
		for s := 0; s < steps; s++ {
			// Local tree build.
			th.ComputeCycles(buildCycles)
			// Essential-tree exchange: pack the nodes the neighbour
			// ring needs, ship them around, unpack what arrives.
			if procs > 1 {
				bytes := int(importedNodes[tid]) * NodeBytes
				th.ComputeCycles(importedNodes[tid] * packNodeCycles)
				tasks[tid].Send(right, 1, bytes, nil)
				msg := tasks[tid].Recv()
				th.ComputeCycles(int64(msg.Bytes/NodeBytes) * unpackNodeCycles)
			}
			// Force computation on the assembled local+imported tree.
			th.ComputeCycles(forceCycles[tid])
			// Step synchronization: everyone reports to task 0.
			if tid == 0 {
				for i := 1; i < procs; i++ {
					tasks[0].Recv()
				}
				for i := 1; i < procs; i++ {
					tasks[0].Send(i, 2, 64, nil)
				}
			} else {
				tasks[tid].Send(0, 2, 64, nil)
				tasks[tid].Recv()
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := w.Flops() * int64(steps)
	return Result{
		N: w.N, Procs: procs, Hypernodes: hypernodes, Steps: steps,
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}, nil
}
