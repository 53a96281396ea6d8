// Package perfmodel converts counted work — floating-point operations
// and memory accesses classified by where they are served — into cycles
// of the simulated PA-RISC 7100. The applications execute their real
// numerics in Go, count what the PA-7100 would have done, and charge the
// total through this model; synchronization and communication are played
// through the machine simulator itself, so only the embarrassingly
// parallel bulk work takes this analytic shortcut.
package perfmodel

import "spp1000/internal/topology"

// Chunk is a unit of bulk work performed by one thread between
// synchronization points.
type Chunk struct {
	// Flops counts adds/multiplies (one per cycle on the PA-7100).
	Flops int64
	// Divides counts floating divides (the PA-7100's efficient divide:
	// ~8 cycles, paper §6 calls it out as a strength).
	Divides int64
	// IntOps counts address arithmetic and loop overhead not hidden
	// behind the FP pipeline.
	IntOps int64
	// CacheHits are accesses served by the data cache.
	CacheHits int64
	// LocalMisses are misses served by the functional unit's own memory.
	LocalMisses int64
	// HypernodeMisses are misses served across the crossbar (including
	// global-buffer hits).
	HypernodeMisses int64
	// GlobalMisses are misses served across the SCI rings (one hop).
	GlobalMisses int64
}

// DivideCycles is the PA-7100 floating divide latency.
const DivideCycles = 8

// Cycles evaluates the chunk under the machine parameters. Cache-hit
// traffic overlaps the FP pipeline (the PA-7100 issues one access and
// one FP op per cycle), so the charged time is max(flops, hit traffic)
// plus the serialized miss terms.
func Cycles(p topology.Params, c Chunk) int64 {
	fp := int64(float64(c.Flops)/p.FlopsPerCycle) + c.Divides*DivideCycles + c.IntOps
	mem := c.CacheHits * p.CacheHit
	base := fp
	if mem > base {
		base = mem
	}
	return base +
		c.LocalMisses*p.LocalMiss +
		c.HypernodeMisses*p.HypernodeMiss +
		c.GlobalMisses*p.GlobalMissCycles(1)
}

// RingImports is one thread's share of the ring traffic that far-shared
// data of the given line footprint costs per pass. The SCI global cache
// buffer serves every re-read, so each remote line crosses the rings
// once per hypernode: the (hypernodes−1)/hypernodes of the footprint
// homed elsewhere, divided among the hypernode's threads. A team on one
// hypernode imports nothing.
func RingImports(lines int64, hypernodes, procs int) int64 {
	if hypernodes <= 1 {
		return 0
	}
	threadsPerHN := int64(max(procs/hypernodes, 1))
	return lines * int64(hypernodes-1) / int64(hypernodes) / threadsPerHN
}

// CapacityMissFraction is the fraction of re-accesses that miss when a
// working set of wsBytes is reused through a cache of cacheBytes: zero
// when it fits, approaching one as the set grows (the classic
// fully-associative LRU fraction; direct-mapped conflict effects are
// absorbed into the same curve).
func CapacityMissFraction(wsBytes, cacheBytes int64) float64 {
	if cacheBytes <= 0 || wsBytes <= cacheBytes {
		return 0
	}
	return 1 - float64(cacheBytes)/float64(wsBytes)
}
