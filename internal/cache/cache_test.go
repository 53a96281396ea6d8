package cache

import (
	"testing"
	"testing/quick"

	"spp1000/internal/topology"
)

func key(space uint32, line uint64) topology.LineKey {
	return topology.LineKey{Space: topology.Space(space), Line: line}
}

func TestMissThenHit(t *testing.T) {
	c := New()
	if r := c.Access(key(1, 10), false); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(key(1, 10), false); !r.Hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New()
	c.Access(key(1, 10), true)
	if !c.Dirty(key(1, 10)) {
		t.Fatal("written line should be dirty")
	}
	c.Clean(key(1, 10))
	if c.Dirty(key(1, 10)) {
		t.Fatal("cleaned line should not be dirty")
	}
}

func TestConflictEvictionWithWriteback(t *testing.T) {
	c := NewWithLines(4)
	c.Access(key(1, 0), true)       // dirty
	r := c.Access(key(1, 4), false) // same slot (4 % 4 == 0)
	if r.Hit {
		t.Fatal("conflicting line should miss")
	}
	if !r.HadEviction || !r.WritebackNeeded {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.Evicted != key(1, 0) {
		t.Fatalf("evicted %+v, want line 0", r.Evicted)
	}
	if c.Contains(key(1, 0)) {
		t.Fatal("evicted line should be gone")
	}
}

func TestDistinctSpacesDoNotAlias(t *testing.T) {
	c := New()
	c.Access(key(1, 10), false)
	if c.Contains(key(2, 10)) {
		t.Fatal("same line in a different space must be distinct")
	}
}

func TestInvalidate(t *testing.T) {
	c := New()
	c.Access(key(1, 10), true)
	present, dirty := c.Invalidate(key(1, 10))
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(key(1, 10)) {
		t.Fatal("line should be gone after invalidate")
	}
	present, _ = c.Invalidate(key(1, 10))
	if present {
		t.Fatal("second invalidate should find nothing")
	}
	if c.Stats.Invalidations != 1 {
		t.Fatalf("invalidation count = %d, want 1", c.Stats.Invalidations)
	}
}

func TestFlushCountsDirtyWritebacks(t *testing.T) {
	c := NewWithLines(16)
	c.Access(key(1, 0), true)
	c.Access(key(1, 1), false)
	c.Access(key(1, 2), true)
	c.Flush()
	if c.Stats.Writebacks != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", c.Stats.Writebacks)
	}
	if c.Contains(key(1, 1)) {
		t.Fatal("flush should empty the cache")
	}
}

func TestGeometry(t *testing.T) {
	c := New()
	if c.Lines() != topology.CacheLines {
		t.Fatalf("default cache has %d lines, want %d", c.Lines(), topology.CacheLines)
	}
	if topology.CacheLines != 32768 {
		t.Fatalf("1 MB / 32 B = 32768 lines, constant says %d", topology.CacheLines)
	}
	if NewWithLines(0).Lines() != 1 {
		t.Fatal("degenerate geometry should clamp to one line")
	}
}

// Property: after Access(k), Contains(k) is true and a subsequent access
// hits; invalidating makes it miss again.
func TestAccessInvalidateProperty(t *testing.T) {
	prop := func(space uint16, line uint32, write bool) bool {
		c := NewWithLines(64)
		k := key(uint32(space), uint64(line))
		c.Access(k, write)
		if !c.Contains(k) {
			return false
		}
		if r := c.Access(k, false); !r.Hit {
			return false
		}
		if c.Dirty(k) != write {
			return false
		}
		c.Invalidate(k)
		if c.Contains(k) {
			return false
		}
		return !c.Access(k, false).Hit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit+miss counts always equal total accesses.
func TestStatsBalanceProperty(t *testing.T) {
	prop := func(lines []uint8) bool {
		c := NewWithLines(8)
		for _, l := range lines {
			c.Access(key(0, uint64(l)), l%2 == 0)
		}
		return c.Stats.Hits+c.Stats.Misses == int64(len(lines))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Lines reports the slot count.
func (c *Cache) Lines() int { return len(c.slots) }
