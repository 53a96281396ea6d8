// Package topology describes the physical structure of a simulated Convex
// SPP-1000: hypernodes of four functional units (two HP PA-RISC 7100 CPUs
// each) joined by a 5-port crossbar, with up to sixteen hypernodes linked
// by four parallel SCI rings. It also defines the five virtual-memory
// classes the Convex compilers expose and the address-to-home mapping
// rules for each.
package topology

import "fmt"

// Architectural constants fixed by the SPP-1000 design (paper §2).
const (
	CPUsPerFU      = 2 // two PA-7100s per functional unit
	FUsPerNode     = 4 // four functional units per hypernode
	CPUsPerNode    = CPUsPerFU * FUsPerNode
	MaxHypernodes  = 16 // four rings × sixteen hypernodes = 128 CPUs
	NumRings       = 4  // parallel SCI rings; FU i attaches to ring i
	CacheLineBytes = 32
	PageBytes      = 4096
	CacheBytes     = 1 << 20 // 1 MB data cache (instruction cache separate)
	CacheLines     = CacheBytes / CacheLineBytes
)

// CPUID identifies a processor by its global index: hypernode-major,
// functional-unit-minor, CPU within FU last.
type CPUID int

// Hypernode reports which hypernode the CPU belongs to.
func (c CPUID) Hypernode() int { return int(c) / CPUsPerNode }

// FU reports the functional unit index (0..3) within the hypernode.
func (c CPUID) FU() int { return (int(c) % CPUsPerNode) / CPUsPerFU }

// Local reports the CPU index (0 or 1) within its functional unit.
func (c CPUID) Local() int { return int(c) % CPUsPerFU }

// Ring reports the SCI ring its functional unit attaches to.
func (c CPUID) Ring() int { return c.FU() }

func (c CPUID) String() string {
	return fmt.Sprintf("hn%d.fu%d.cpu%d", c.Hypernode(), c.FU(), c.Local())
}

// MakeCPU builds a CPUID from (hypernode, fu, local) coordinates.
func MakeCPU(hn, fu, local int) CPUID {
	return CPUID(hn*CPUsPerNode + fu*CPUsPerFU + local)
}

// HypernodesFor reports how many hypernodes a high-locality team of n
// threads spans: n/CPUsPerNode rounded up, and at least one.
func HypernodesFor(n int) int {
	if n <= CPUsPerNode {
		return 1
	}
	return (n + CPUsPerNode - 1) / CPUsPerNode
}

// Topology is a concrete machine configuration.
type Topology struct {
	Hypernodes int // 1..16
}

// New validates and returns a Topology with n hypernodes.
func New(n int) (Topology, error) {
	if n < 1 || n > MaxHypernodes {
		return Topology{}, fmt.Errorf("topology: hypernodes must be 1..%d, got %d", MaxHypernodes, n)
	}
	return Topology{Hypernodes: n}, nil
}

// NumCPUs reports the total processor count.
func (t Topology) NumCPUs() int { return t.Hypernodes * CPUsPerNode }

// RingHops reports the number of unidirectional ring hops from hypernode
// src to dst (zero when equal).
func (t Topology) RingHops(src, dst int) int {
	if src == dst {
		return 0
	}
	d := dst - src
	if d < 0 {
		d += t.Hypernodes
	}
	return d
}

// Class is one of the five virtual-memory classes of the Convex
// programming model (paper §3.2).
type Class int

const (
	// ThreadPrivate data has one copy per thread, in the memory of the
	// thread's own functional unit.
	ThreadPrivate Class = iota
	// NodePrivate data has one copy per hypernode, shared by its threads.
	NodePrivate
	// NearShared data has a single copy hosted on one hypernode,
	// interleaved across that hypernode's functional units.
	NearShared
	// FarShared data is page-interleaved round-robin across all
	// hypernodes (and across functional units within each).
	FarShared
	// BlockShared is FarShared with a program-chosen distribution block
	// size instead of the page size.
	BlockShared
)

var classNames = [...]string{"thread-private", "node-private", "near-shared", "far-shared", "block-shared"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Addr is a byte address within one virtual-memory object. Homing rules
// interpret it relative to the object's class.
type Addr uint64

// Line reports the cache-line index of the address.
func (a Addr) Line() uint64 { return uint64(a) / CacheLineBytes }

// Page reports the page index of the address.
func (a Addr) Page() uint64 { return uint64(a) / PageBytes }

// Placement locates the physical home of one cache line.
type Placement struct {
	Hypernode int
	FU        int
}

// Home resolves the home functional unit of a line, following the
// class rules relative to the accessing CPU.
//
//   - ThreadPrivate / NodePrivate: the accessor's own hypernode,
//     interleaved across its functional units by line index
//     (ThreadPrivate lands on the accessor's own FU).
//   - NearShared: hosted hypernode `host`, interleaved across FUs.
//   - FarShared: page round-robin across hypernodes, line-interleaved
//     across FUs within the owning hypernode.
//   - BlockShared: as FarShared with blockBytes-sized units.
func (t Topology) Home(class Class, a Addr, accessor CPUID, host int, blockBytes int) Placement {
	switch class {
	case ThreadPrivate:
		return Placement{Hypernode: accessor.Hypernode(), FU: accessor.FU()}
	case NodePrivate:
		return Placement{Hypernode: accessor.Hypernode(), FU: int(a.Line()) % FUsPerNode}
	case NearShared:
		if host < 0 || host >= t.Hypernodes {
			host = 0
		}
		return Placement{Hypernode: host, FU: int(a.Line()) % FUsPerNode}
	case FarShared:
		hn := int(a.Page()) % t.Hypernodes
		return Placement{Hypernode: hn, FU: int(a.Line()) % FUsPerNode}
	case BlockShared:
		if blockBytes <= 0 {
			blockBytes = PageBytes
		}
		hn := int(uint64(a) / uint64(blockBytes) % uint64(t.Hypernodes))
		return Placement{Hypernode: hn, FU: int(a.Line()) % FUsPerNode}
	default:
		return Placement{Hypernode: accessor.Hypernode(), FU: accessor.FU()}
	}
}
