// Package threads reproduces the Convex CPSlib programming interface on
// the simulated machine: fork/join of synchronous thread teams, the
// semaphore-plus-spin barrier of paper §4.2, gates (locks), and critical
// sections, together with the two thread-placement policies the paper's
// microbenchmarks compare (high locality vs. uniform distribution).
package threads

import "spp1000/internal/topology"

// Placement is a thread-to-CPU assignment policy.
type Placement int

const (
	// HighLocality packs threads onto the lowest-numbered hypernode
	// first: the first 8 threads land on hypernode 0 (paper §4).
	HighLocality Placement = iota
	// Uniform deals threads round-robin across hypernodes so each holds
	// an equal share.
	Uniform
)

func (p Placement) String() string {
	if p == HighLocality {
		return "high-locality"
	}
	return "uniform"
}

// CPUFor maps thread tid of an n-thread team onto a CPU.
func CPUFor(topo topology.Topology, p Placement, tid, n int) topology.CPUID {
	if n > topo.NumCPUs() {
		n = topo.NumCPUs()
	}
	switch p {
	case Uniform:
		hn := tid % topo.Hypernodes
		slot := tid / topo.Hypernodes
		slot %= topology.CPUsPerNode
		return topology.MakeCPU(hn, slot/topology.CPUsPerFU, slot%topology.CPUsPerFU)
	default: // HighLocality
		id := tid % topo.NumCPUs()
		return topology.CPUID(id)
	}
}
