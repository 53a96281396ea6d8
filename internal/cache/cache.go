// Package cache models the external direct-mapped data cache of one
// HP PA-RISC 7100: 1 MB, 32-byte lines (paper §2.2). Only presence and
// dirtiness are tracked — data values live in the application, which is
// what makes whole-program simulation tractable. A cache keeps only the
// slots a run has filled, in a small open-addressed table keyed by slot
// index that is nil until the first fill and doubles as it grows, so a
// cache costs memory in proportion to the slots a run touches, not to
// its capacity. A machine's caches are built together as one slab
// (NewSet).
package cache

import (
	"fmt"
	"math/bits"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// entry is one touched slot: the line it holds and a tag packing
// (slot index+1)<<2 | dirty | valid. A zero tag marks a free table
// entry; an invalidated slot keeps its entry with the valid bit clear,
// so entries are never deleted.
type entry struct {
	line  uint64
	space topology.Space
	tag   uint32
}

const (
	valid uint32 = 1 << iota
	dirty
	flags = valid | dirty
)

// maxLines keeps (index+1)<<2 within the 32-bit tag.
const maxLines = 1 << 29

// minTable is the table size of a cache's first fill.
const minTable = 8

// slotTag is the tag bits naming slot index i.
func slotTag(i uint64) uint32 { return uint32(i+1) << 2 }

func (e *entry) holds(key topology.LineKey) bool {
	return e.tag&valid != 0 && e.line == key.Line && e.space == key.Space
}

// Hooks are the PMU-style counter handles a cache counts its events in
// (hits, misses, evictions, writebacks, invalidations). Several caches
// may share one Hooks — their counts aggregate.
type Hooks struct {
	hits          *counters.Counter
	misses        *counters.Counter
	evictions     *counters.Counter
	writebacks    *counters.Counter
	invalidations *counters.Counter
}

// NewHooks resolves the five event counters of group g once. A nil
// group gives nil handles, which count nothing.
func NewHooks(g *counters.Group) *Hooks {
	return &Hooks{
		hits:          g.Counter("hits"),
		misses:        g.Counter("misses"),
		evictions:     g.Counter("evictions"),
		writebacks:    g.Counter("writebacks"),
		invalidations: g.Counter("invalidations"),
	}
}

// detached is the Hooks of every cache with no counters attached: all
// handles nil, so counting is a free no-op.
var detached Hooks

// Cache is one processor's data cache.
type Cache struct {
	// table holds the touched slots, open-addressed by a hash of the
	// slot index with linear probing; nil until the first fill, its
	// length a power of two.
	table []entry
	used  int   // entries of table in use
	shift uint8 // 64 - log2(len(table)), for the hash
	lines uint64
	mask  uint64 // lines-1 when lines is a power of two
	pow2  bool
	ctr   *Hooks
}

// AttachCounters counts this cache's event stream in h, which may be
// shared with other caches. A nil h detaches.
func (c *Cache) AttachCounters(h *Hooks) {
	if h == nil {
		h = &detached
	}
	c.ctr = h
}

// NewSet returns n empty caches of lines slots each, as one slab (a
// machine's per-CPU caches). lines below 1 is clamped to 1.
func NewSet(n, lines int) []Cache {
	if lines <= 0 {
		lines = 1
	}
	if lines > maxLines {
		panic(fmt.Sprintf("cache: %d lines exceeds the limit of %d", lines, maxLines))
	}
	pow2 := lines&(lines-1) == 0
	cs := make([]Cache, n)
	for i := range cs {
		cs[i] = Cache{lines: uint64(lines), mask: uint64(lines - 1), pow2: pow2, ctr: &detached}
	}
	return cs
}

func (c *Cache) index(key topology.LineKey) uint64 {
	// Direct mapping: line index modulo the slot count. Distinct spaces
	// are offset so that two objects do not systematically collide.
	h := key.Line + uint64(key.Space)*7919
	if c.pow2 {
		return h & c.mask
	}
	return h % c.lines
}

// home is the table position where slot i's probe sequence starts.
func (c *Cache) home(i uint64) uint64 {
	return (i * 0x9E3779B97F4A7C15) >> c.shift
}

// find returns the entry of slot i and true, or, when the slot was
// never filled, the free entry that ends its probe sequence (nil while
// the table is nil) and false. It never allocates.
func (c *Cache) find(i uint64) (*entry, bool) {
	if c.table == nil {
		return nil, false
	}
	tag := slotTag(i)
	m := uint64(len(c.table) - 1)
	for p := c.home(i); ; p = (p + 1) & m {
		e := &c.table[p]
		if e.tag&^flags == tag {
			return e, true
		}
		if e.tag == 0 {
			return e, false
		}
	}
}

// insert claims free, the entry find ended at, for slot i; when the
// table is nil or would pass 3/4 full it grows the table first and
// claims a fresh entry.
func (c *Cache) insert(i uint64, free *entry) *entry {
	c.used++
	if 4*c.used > 3*len(c.table) {
		c.grow()
		free = c.place(i)
	}
	free.tag = slotTag(i)
	return free
}

// place returns the first free entry of slot i's probe sequence.
func (c *Cache) place(i uint64) *entry {
	m := uint64(len(c.table) - 1)
	p := c.home(i)
	for c.table[p].tag != 0 {
		p = (p + 1) & m
	}
	return &c.table[p]
}

// grow doubles the table (or makes the first one) and rehashes it.
func (c *Cache) grow() {
	old := c.table
	n := max(minTable, 2*len(old))
	c.table = make([]entry, n)
	c.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, e := range old {
		if e.tag != 0 {
			*c.place(uint64(e.tag>>2) - 1) = e
		}
	}
}

// lookup returns the entry holding key, or nil when the line is absent.
func (c *Cache) lookup(key topology.LineKey) *entry {
	if e, ok := c.find(c.index(key)); ok && e.holds(key) {
		return e
	}
	return nil
}

// Result describes the outcome of a lookup.
type Result struct {
	Hit bool
	// WritebackNeeded is set when the access evicted a dirty line.
	WritebackNeeded bool
	// Evicted is the line displaced by a miss fill, if any.
	Evicted     topology.LineKey
	HadEviction bool
}

// Access touches the line, filling it on a miss. write marks it dirty.
func (c *Cache) Access(key topology.LineKey, write bool) Result {
	i := c.index(key)
	e, ok := c.find(i)
	if ok && e.holds(key) {
		c.ctr.hits.Inc()
		if write {
			e.tag |= dirty
		}
		return Result{Hit: true}
	}
	c.ctr.misses.Inc()
	res := Result{}
	if !ok {
		e = c.insert(i, e)
	} else if e.tag&valid != 0 {
		c.ctr.evictions.Inc()
		res.HadEviction = true
		res.Evicted = topology.LineKey{Space: e.space, Line: e.line}
		if e.tag&dirty != 0 {
			c.ctr.writebacks.Inc()
			res.WritebackNeeded = true
		}
	}
	e.line, e.space = key.Line, key.Space
	e.tag = e.tag&^flags | valid
	if write {
		e.tag |= dirty
	}
	return res
}

// Hit plays an access that the cached copy can serve alone: a read of
// a cached line, or a write of a line cached dirty. Then it counts the
// hit and reports served. Otherwise it changes nothing; present reports
// whether the line is cached (clean, for a write that needs ownership
// first). It is memsys's hit path: one table lookup.
func (c *Cache) Hit(key topology.LineKey, write bool) (served, present bool) {
	e := c.lookup(key)
	if e == nil {
		return false, false
	}
	if write && e.tag&dirty == 0 {
		return false, true
	}
	c.ctr.hits.Inc()
	return true, true
}

// Contains reports whether the line is currently cached.
//
//simlint:allow deadexport state probe the memsys coherence tests drive across packages
func (c *Cache) Contains(key topology.LineKey) bool {
	return c.lookup(key) != nil
}

// Dirty reports whether the line is cached dirty.
//
//simlint:allow deadexport state probe the memsys coherence tests drive across packages
func (c *Cache) Dirty(key topology.LineKey) bool {
	e := c.lookup(key)
	return e != nil && e.tag&dirty != 0
}

// Invalidate drops the line (a coherence action from the directory).
// It reports whether a copy was present and whether it was dirty.
func (c *Cache) Invalidate(key topology.LineKey) (present, isDirty bool) {
	e := c.lookup(key)
	if e == nil {
		return false, false
	}
	c.ctr.invalidations.Inc()
	isDirty = e.tag&dirty != 0
	e.tag &^= flags
	return true, isDirty
}

// Clean marks a cached line clean (after a writeback / downgrade).
func (c *Cache) Clean(key topology.LineKey) {
	if e := c.lookup(key); e != nil {
		e.tag &^= dirty
	}
}
