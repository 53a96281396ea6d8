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
	// GlobalMisses are misses served across the SCI rings.
	GlobalMisses int64
	// GlobalHops is the mean ring hop count for GlobalMisses (defaults
	// to 1 when zero).
	GlobalHops int
}

// Add accumulates another chunk into c.
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its dedicated test (queued on ROADMAP)
func (c *Chunk) Add(o Chunk) {
	c.Flops += o.Flops
	c.Divides += o.Divides
	c.IntOps += o.IntOps
	c.CacheHits += o.CacheHits
	c.LocalMisses += o.LocalMisses
	c.HypernodeMisses += o.HypernodeMisses
	c.GlobalMisses += o.GlobalMisses
	if o.GlobalHops > c.GlobalHops {
		c.GlobalHops = o.GlobalHops
	}
}

// Scale returns the chunk divided evenly by n (work split across n
// threads).
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its dedicated test (queued on ROADMAP)
func (c Chunk) Scale(n int) Chunk {
	if n <= 1 {
		return c
	}
	d := int64(n)
	return Chunk{
		Flops:           c.Flops / d,
		Divides:         c.Divides / d,
		IntOps:          c.IntOps / d,
		CacheHits:       c.CacheHits / d,
		LocalMisses:     c.LocalMisses / d,
		HypernodeMisses: c.HypernodeMisses / d,
		GlobalMisses:    c.GlobalMisses / d,
		GlobalHops:      c.GlobalHops,
	}
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
	hops := c.GlobalHops
	if hops <= 0 {
		hops = 1
	}
	return base +
		c.LocalMisses*p.LocalMiss +
		c.HypernodeMisses*p.HypernodeMiss +
		c.GlobalMisses*p.GlobalMissCycles(hops)
}

// StreamMissFraction is the per-access miss fraction of a sequential
// sweep with the given access stride: one miss per cache line touched.
func StreamMissFraction(strideBytes int) float64 {
	if strideBytes <= 0 {
		strideBytes = 8
	}
	f := float64(strideBytes) / float64(topology.CacheLineBytes)
	if f > 1 {
		f = 1
	}
	return f
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

// SweepMissFraction combines the two: a repeated sequential sweep over a
// working set misses at the stream rate on the non-resident fraction.
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its dedicated test (queued on ROADMAP)
func SweepMissFraction(strideBytes int, wsBytes, cacheBytes int64) float64 {
	cap := CapacityMissFraction(wsBytes, cacheBytes)
	if cap == 0 {
		return 0
	}
	return StreamMissFraction(strideBytes) * cap
}

// SplitMisses distributes misses of a shared structure across service
// levels given the machine layout: with h hypernodes holding the data
// uniformly (far-shared), a miss is hypernode-local with probability
// 1/h. Returns (hypernodeMisses, globalMisses).
//
//simlint:allow deadexport deferred sweep: test-only; deleting it also deletes its dedicated test (queued on ROADMAP)
func SplitMisses(misses int64, hypernodes int) (hn, global int64) {
	if hypernodes <= 1 {
		return misses, 0
	}
	hn = misses / int64(hypernodes)
	return hn, misses - hn
}
