// Package cache models the external direct-mapped data cache of one
// HP PA-RISC 7100: 1 MB, 32-byte lines (paper §2.2). Only presence and
// dirtiness are tracked — data values live in the application, which is
// what makes whole-program simulation tractable. Slots are allocated a
// page at a time when a line of the page is first filled, so a cache
// costs memory in proportion to the lines a run touches, not to its
// capacity.
package cache

import (
	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// pageSlots is the number of slots allocated together on first fill.
const pageSlots = 512

// state of one cache slot: the key's fields laid out to pack into 16
// bytes.
type slot struct {
	line  uint64
	space topology.Space
	valid bool
	dirty bool
}

func (s *slot) holds(key topology.LineKey) bool {
	return s.valid && s.line == key.Line && s.space == key.Space
}

// hooks are the optional PMU-style counter handles. All nil (free
// no-ops) until AttachCounters.
type hooks struct {
	hits          *counters.Counter
	misses        *counters.Counter
	evictions     *counters.Counter
	writebacks    *counters.Counter
	invalidations *counters.Counter
}

// Cache is one processor's data cache.
type Cache struct {
	// pages[i] holds slots [i*pageSlots, (i+1)*pageSlots); nil until a
	// line of it is first filled.
	pages [][]slot
	lines uint64
	ctr   hooks
}

// AttachCounters counts this cache's event stream in the group's
// counters (hits, misses, evictions, writebacks, invalidations).
// Several caches may share one group — their counts aggregate. A nil
// group detaches (handles become free no-ops again).
func (c *Cache) AttachCounters(g *counters.Group) {
	c.ctr = hooks{
		hits:          g.Counter("hits"),
		misses:        g.Counter("misses"),
		evictions:     g.Counter("evictions"),
		writebacks:    g.Counter("writebacks"),
		invalidations: g.Counter("invalidations"),
	}
}

// New returns an empty cache with the architectural geometry.
func New() *Cache {
	return NewWithLines(topology.CacheLines)
}

// NewWithLines returns an empty cache with a custom number of line slots
// (for tests and for scaled-down capacity experiments).
func NewWithLines(lines int) *Cache {
	if lines <= 0 {
		lines = 1
	}
	return &Cache{
		pages: make([][]slot, (lines+pageSlots-1)/pageSlots),
		lines: uint64(lines),
	}
}

func (c *Cache) index(key topology.LineKey) uint64 {
	// Direct mapping: line index modulo the slot count. Distinct spaces
	// are offset so that two objects do not systematically collide.
	return (key.Line + uint64(key.Space)*7919) % c.lines
}

// lookup returns the slot holding key, or nil when the line is absent.
// It never allocates: a page not yet filled holds nothing.
func (c *Cache) lookup(key topology.LineKey) *slot {
	i := c.index(key)
	page := c.pages[i/pageSlots]
	if page == nil {
		return nil
	}
	if s := &page[i%pageSlots]; s.holds(key) {
		return s
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
	page := c.pages[i/pageSlots]
	if page == nil {
		page = make([]slot, min(pageSlots, c.lines))
		c.pages[i/pageSlots] = page
	}
	s := &page[i%pageSlots]
	if s.holds(key) {
		c.ctr.hits.Inc()
		if write {
			s.dirty = true
		}
		return Result{Hit: true}
	}
	c.ctr.misses.Inc()
	res := Result{}
	if s.valid {
		c.ctr.evictions.Inc()
		res.HadEviction = true
		res.Evicted = topology.LineKey{Space: s.space, Line: s.line}
		if s.dirty {
			c.ctr.writebacks.Inc()
			res.WritebackNeeded = true
		}
	}
	*s = slot{line: key.Line, space: key.Space, valid: true, dirty: write}
	return res
}

// Contains reports whether the line is currently cached.
func (c *Cache) Contains(key topology.LineKey) bool {
	return c.lookup(key) != nil
}

// Dirty reports whether the line is cached dirty.
func (c *Cache) Dirty(key topology.LineKey) bool {
	s := c.lookup(key)
	return s != nil && s.dirty
}

// Invalidate drops the line (a coherence action from the directory).
// It reports whether a copy was present and whether it was dirty.
func (c *Cache) Invalidate(key topology.LineKey) (present, dirty bool) {
	s := c.lookup(key)
	if s == nil {
		return false, false
	}
	c.ctr.invalidations.Inc()
	dirty = s.dirty
	*s = slot{}
	return true, dirty
}

// Clean marks a cached line clean (after a writeback / downgrade).
func (c *Cache) Clean(key topology.LineKey) {
	if s := c.lookup(key); s != nil {
		s.dirty = false
	}
}
