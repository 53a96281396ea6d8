package counters

import (
	"encoding/json"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	var h *Histogram
	h.Observe(3)
	var g *Group
	if g.Counter("x") != nil || g.Histogram("y") != nil {
		t.Fatal("nil group must hand out nil handles")
	}
	var r *Registry
	if r.Group("z") != nil {
		t.Fatal("nil registry must hand out a nil group")
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestDisabledPathZeroAllocs is the acceptance guard: counting through
// nil handles — the state of every component when no collector is
// attached — must allocate nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var g *Group
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		h.Observe(3)
		_ = g.Counter("x")
		_ = r.Group("g")
	})
	if allocs != 0 {
		t.Fatalf("disabled counter path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledPathZeroAllocsSteadyState(t *testing.T) {
	r := NewRegistry()
	c := r.Group("g").Counter("x")
	h := r.Group("g").Histogram("y")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(5)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.Group("cache.hn0")
	c := g.Counter("hits")
	c.Inc()
	c.Add(9)
	if n := r.Snapshot().Counter("cache.hn0", "hits"); n != 10 {
		t.Fatalf("counter = %d, want 10", n)
	}
	if g.Counter("hits") != c {
		t.Fatal("same name must return the same handle")
	}
	h := g.Histogram("fanout")
	for _, v := range []int64{0, 1, 7, 7, 200} {
		h.Observe(v)
	}
	hv, _ := r.Snapshot().Histogram("cache.hn0", "fanout")
	if hv.Count != 5 || hv.Sum != 215 || hv.Max != 200 {
		t.Fatalf("histogram = %+v", hv)
	}
	if hv.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("200 must land in the overflow bucket: %v", hv.Buckets)
	}
	if hv.Mean() != 43 {
		t.Fatalf("mean = %v, want 43", hv.Mean())
	}
}

func TestBucketFor(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 128: 7, 129: 8, 1 << 40: 8}
	for v, want := range cases {
		if got := bucketFor(v); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestSnapshotDeterministicAndQueryable(t *testing.T) {
	r := NewRegistry()
	r.Group("zeta").Counter("b").Add(2)
	r.Group("zeta").Counter("a").Add(1)
	r.Group("alpha.hn1").Counter("x").Add(3)
	r.Group("alpha.hn0").Counter("x").Add(4)
	r.Group("alpha.hn0").Histogram("h").Observe(6)
	s := r.Snapshot()
	if s.Groups[0].Name != "alpha.hn0" || s.Groups[2].Name != "zeta" {
		t.Fatalf("groups not sorted: %+v", s.Groups)
	}
	if s.Groups[2].Counters[0].Name != "a" {
		t.Fatalf("counters not sorted: %+v", s.Groups[2].Counters)
	}
	if s.Counter("zeta", "b") != 2 || s.Counter("missing", "b") != 0 {
		t.Fatal("Counter lookup wrong")
	}
	if s.GroupTotal("alpha", "x") != 7 {
		t.Fatalf("GroupTotal = %d, want 7", s.GroupTotal("alpha", "x"))
	}
	if hv, ok := s.Histogram("alpha.hn0", "h"); !ok || hv.Sum != 6 {
		t.Fatalf("Histogram lookup: %v %v", hv, ok)
	}
	flat := s.Flatten()
	if flat["alpha.hn0.x"] != 4 || flat["alpha.hn0.h.sum"] != 6 {
		t.Fatalf("Flatten: %v", flat)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must be JSON-serializable: %v", err)
	}
	// Equal states must render equal bytes.
	if a, b := s.Render("t"), r.Snapshot().Render("t"); a != b {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRenderEmpty(t *testing.T) {
	s := Snapshot{}
	out := s.Render("title")
	if out != "title\n(no counters recorded)\n" {
		t.Fatalf("empty render = %q", out)
	}
}

func TestPublishDeltaSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Group("g").Counter("x")
	h := r.Group("g").Histogram("hh")
	sink := NewCollector()
	Attach(sink)
	defer Detach(sink)

	c.Add(5)
	h.Observe(2)
	Publish(r)
	c.Add(3)
	Publish(r)
	Publish(r) // nothing new: must not double-count

	s := sink.Snapshot()
	if got := s.Counter("g", "x"); got != 8 {
		t.Fatalf("collector total = %d, want 8 (delta publishing broken)", got)
	}
	if hv, _ := s.Histogram("g", "hh"); hv.Count != 1 || hv.Sum != 2 {
		t.Fatalf("histogram delta: %+v", hv)
	}
}

func TestAttachDetachActive(t *testing.T) {
	if Active() {
		t.Fatal("no sinks expected at test start")
	}
	a, b := NewCollector(), NewCollector()
	Attach(a)
	Attach(b)
	if !Active() {
		t.Fatal("Active must be true with sinks attached")
	}
	r := NewRegistry()
	r.Group("g").Counter("x").Inc()
	Publish(r)
	Detach(a)
	r.Group("g").Counter("x").Inc()
	Publish(r)
	Detach(b)
	if Active() {
		t.Fatal("Active must be false after detaching everything")
	}
	if got := a.Snapshot().Counter("g", "x"); got != 1 {
		t.Fatalf("detached sink saw %d, want 1", got)
	}
	if got := b.Snapshot().Counter("g", "x"); got != 2 {
		t.Fatalf("still-attached sink saw %d, want 2", got)
	}
}

func TestCollectorMergeCommutes(t *testing.T) {
	build := func(vals []int64) Snapshot {
		sink := NewCollector()
		Attach(sink)
		for _, v := range vals {
			r := NewRegistry()
			r.Group("g").Counter("x").Add(v)
			r.Group("g").Histogram("h").Observe(v)
			Publish(r)
		}
		Detach(sink)
		return sink.Snapshot()
	}
	a := build([]int64{1, 2, 3}).Render("t")
	b := build([]int64{3, 1, 2}).Render("t")
	if a != b {
		t.Fatalf("merge order changed the snapshot:\n%s\nvs\n%s", a, b)
	}
}
