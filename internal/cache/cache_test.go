package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

func key(space uint32, line uint64) topology.LineKey {
	return topology.LineKey{Space: topology.Space(space), Line: line}
}

// counted attaches a fresh counter group to c and returns a reader of
// the event counts production reports for it.
func counted(c *Cache) (*Cache, func(name string) int64) {
	reg := counters.NewRegistry()
	c.AttachCounters(reg.Group("cache"))
	return c, func(name string) int64 { return reg.Snapshot().Counter("cache", name) }
}

func TestMissThenHit(t *testing.T) {
	c, count := counted(New())
	if r := c.Access(key(1, 10), false); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(key(1, 10), false); !r.Hit {
		t.Fatal("second access should hit")
	}
	if h, m := count("hits"), count("misses"); h != 1 || m != 1 {
		t.Fatalf("hits = %d, misses = %d, want 1 and 1", h, m)
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
	c, count := counted(New())
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
	if n := count("invalidations"); n != 1 {
		t.Fatalf("invalidation count = %d, want 1", n)
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
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
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
		c, count := counted(NewWithLines(8))
		for _, l := range lines {
			c.Access(key(0, uint64(l)), l%2 == 0)
		}
		return count("hits")+count("misses") == int64(len(lines))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Lines reports the slot count.
func (c *Cache) Lines() int { return int(c.lines) }

// model is the reference cache: one flat, eagerly allocated slot array
// with the same direct-mapped index formula, counting the same events
// as the cache's counters, by counter name.
type model struct {
	slots  []slot
	counts map[string]int64
}

func (m *model) at(k topology.LineKey) *slot {
	return &m.slots[(k.Line+uint64(k.Space)*7919)%uint64(len(m.slots))]
}

// has reports whether the model holds k (and which slot it would use).
func (m *model) has(k topology.LineKey) (*slot, bool) {
	s := m.at(k)
	return s, s.valid && s.line == k.Line && s.space == k.Space
}

func (m *model) access(k topology.LineKey, write bool) Result {
	s, ok := m.has(k)
	if ok {
		m.counts["hits"]++
		s.dirty = s.dirty || write
		return Result{Hit: true}
	}
	m.counts["misses"]++
	var res Result
	if s.valid {
		m.counts["evictions"]++
		res.HadEviction = true
		res.Evicted = topology.LineKey{Space: s.space, Line: s.line}
		if s.dirty {
			m.counts["writebacks"]++
			res.WritebackNeeded = true
		}
	}
	*s = slot{line: k.Line, space: k.Space, valid: true, dirty: write}
	return res
}

func (m *model) invalidate(k topology.LineKey) (present, dirty bool) {
	s, ok := m.has(k)
	if !ok {
		return false, false
	}
	m.counts["invalidations"]++
	present, dirty = true, s.dirty
	*s = slot{}
	return present, dirty
}

// Property: on random Access/Contains/Dirty/Invalidate/Clean sequences,
// the paged cache returns exactly what the flat reference model does,
// for geometries below, at, and across page boundaries.
func TestMatchesFlatModel(t *testing.T) {
	for _, lines := range []int{1, 7, 511, 512, 513, 4096, 32768} {
		rng := rand.New(rand.NewSource(int64(lines)))
		c, count := counted(NewWithLines(lines))
		m := &model{slots: make([]slot, lines), counts: map[string]int64{}}
		// Draw keys from a window a few times the capacity so that hits,
		// conflict evictions and untouched pages all occur.
		span := uint64(3*lines + 5)
		for op := 0; op < 20000; op++ {
			k := key(uint32(rng.Intn(3)), rng.Uint64()%span)
			switch rng.Intn(5) {
			case 0:
				write := rng.Intn(2) == 0
				if got, want := c.Access(k, write), m.access(k, write); got != want {
					t.Fatalf("lines=%d op %d Access(%v,%v) = %+v, model %+v", lines, op, k, write, got, want)
				}
			case 1:
				_, want := m.has(k)
				if got := c.Contains(k); got != want {
					t.Fatalf("lines=%d op %d Contains(%v) = %v, model %v", lines, op, k, got, want)
				}
			case 2:
				s, ok := m.has(k)
				if got, want := c.Dirty(k), ok && s.dirty; got != want {
					t.Fatalf("lines=%d op %d Dirty(%v) = %v, model %v", lines, op, k, got, want)
				}
			case 3:
				gp, gd := c.Invalidate(k)
				if wp, wd := m.invalidate(k); gp != wp || gd != wd {
					t.Fatalf("lines=%d op %d Invalidate(%v) = (%v,%v), model (%v,%v)", lines, op, k, gp, gd, wp, wd)
				}
			case 4:
				c.Clean(k)
				if s, ok := m.has(k); ok {
					s.dirty = false
				}
			}
		}
		for _, name := range []string{"hits", "misses", "evictions", "writebacks", "invalidations"} {
			if got, want := count(name), m.counts[name]; got != want {
				t.Fatalf("lines=%d %s = %d, model %d", lines, name, got, want)
			}
		}
	}
}

// The read-only and coherence paths never allocate a page, and a hit
// allocates nothing.
func TestLookupsDoNotAllocate(t *testing.T) {
	c := New()
	untouched := key(1, 12345)
	for name, fn := range map[string]func(){
		"Contains":   func() { c.Contains(untouched) },
		"Dirty":      func() { c.Dirty(untouched) },
		"Invalidate": func() { c.Invalidate(untouched) },
		"Clean":      func() { c.Clean(untouched) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on an untouched line: %v allocs/op, want 0", name, n)
		}
	}
	for i, p := range c.pages {
		if p != nil {
			t.Fatalf("page %d allocated by a read-only call", i)
		}
	}
	hit := key(1, 10)
	c.Access(hit, false)
	if n := testing.AllocsPerRun(100, func() { c.Access(hit, true) }); n != 0 {
		t.Errorf("Access hit: %v allocs/op, want 0", n)
	}
}
