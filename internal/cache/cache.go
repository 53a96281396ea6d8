// Package cache models the external direct-mapped data cache of one
// HP PA-RISC 7100: 1 MB, 32-byte lines (paper §2.2). Only presence and
// dirtiness are tracked — data values live in the application, which is
// what makes whole-program simulation tractable.
package cache

import (
	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// state of one cache slot.
type slot struct {
	valid bool
	dirty bool
	key   topology.LineKey
}

// Stats counts cache events for the CXpa-style instrumentation.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Writebacks    int64
	Invalidations int64
}

// hooks are the optional PMU-style counter handles. All nil (free
// no-ops) until AttachCounters; they mirror the Stats fields so either
// instrumentation view can be read.
type hooks struct {
	hits          *counters.Counter
	misses        *counters.Counter
	evictions     *counters.Counter
	writebacks    *counters.Counter
	invalidations *counters.Counter
}

// Cache is one processor's data cache.
type Cache struct {
	slots []slot
	Stats Stats
	ctr   hooks
}

// AttachCounters mirrors this cache's event stream into the group's
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
	return &Cache{slots: make([]slot, topology.CacheLines)}
}

// NewWithLines returns an empty cache with a custom number of line slots
// (for tests and for scaled-down capacity experiments).
func NewWithLines(lines int) *Cache {
	if lines <= 0 {
		lines = 1
	}
	return &Cache{slots: make([]slot, lines)}
}

func (c *Cache) index(key topology.LineKey) int {
	// Direct mapping: line index modulo the slot count. Distinct spaces
	// are offset so that two objects do not systematically collide.
	return int((key.Line + uint64(key.Space)*7919) % uint64(len(c.slots)))
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
	s := &c.slots[c.index(key)]
	if s.valid && s.key == key {
		c.Stats.Hits++
		c.ctr.hits.Inc()
		if write {
			s.dirty = true
		}
		return Result{Hit: true}
	}
	c.Stats.Misses++
	c.ctr.misses.Inc()
	res := Result{}
	if s.valid {
		c.Stats.Evictions++
		c.ctr.evictions.Inc()
		res.HadEviction = true
		res.Evicted = s.key
		if s.dirty {
			c.Stats.Writebacks++
			c.ctr.writebacks.Inc()
			res.WritebackNeeded = true
		}
	}
	s.valid = true
	s.dirty = write
	s.key = key
	return res
}

// Contains reports whether the line is currently cached.
func (c *Cache) Contains(key topology.LineKey) bool {
	s := &c.slots[c.index(key)]
	return s.valid && s.key == key
}

// Dirty reports whether the line is cached dirty.
func (c *Cache) Dirty(key topology.LineKey) bool {
	s := &c.slots[c.index(key)]
	return s.valid && s.key == key && s.dirty
}

// Invalidate drops the line (a coherence action from the directory).
// It reports whether a copy was present and whether it was dirty.
func (c *Cache) Invalidate(key topology.LineKey) (present, dirty bool) {
	s := &c.slots[c.index(key)]
	if s.valid && s.key == key {
		c.Stats.Invalidations++
		c.ctr.invalidations.Inc()
		present, dirty = true, s.dirty
		s.valid = false
		s.dirty = false
	}
	return present, dirty
}

// Clean marks a cached line clean (after a writeback / downgrade).
func (c *Cache) Clean(key topology.LineKey) {
	s := &c.slots[c.index(key)]
	if s.valid && s.key == key {
		s.dirty = false
	}
}

// Flush empties the cache, counting writebacks of dirty lines.
func (c *Cache) Flush() {
	for i := range c.slots {
		if c.slots[i].valid && c.slots[i].dirty {
			c.Stats.Writebacks++
			c.ctr.writebacks.Inc()
		}
		c.slots[i] = slot{}
	}
}
