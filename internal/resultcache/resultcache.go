// Package resultcache is a content-addressed result store with in-flight
// coalescing, built for the simulation service: every job in this
// repository is a pure deterministic function of its canonical
// configuration (experiments.Spec.Key), so a result computed once is
// correct forever and concurrent identical requests can share a single
// run. The same property lets ScaleSimulator-style tools amortize one
// simulation across many studies; here it turns the daemon's hot path
// into a hash lookup.
package resultcache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Stats counts cache outcomes. All fields are cumulative.
type Stats struct {
	// Hits are calls answered from a completed entry with no new run.
	Hits int64
	// Misses are calls that became the leader and executed the compute
	// function.
	Misses int64
	// Coalesced are calls that arrived while an identical computation
	// was in flight and waited for it instead of starting another.
	Coalesced int64
	// Evictions are completed entries dropped to respect the capacity
	// bound.
	Evictions int64
	// BackingHits is the subset of Hits served by the durable backing
	// store rather than memory — after a restart, prior results land
	// here.
	BackingHits int64
	// BackingErrors counts backing reads/writes that failed. The cache
	// degrades gracefully: a failed read is a miss (the result is
	// recomputed), a failed write leaves the result memory-only.
	BackingErrors int64
}

// HitRatio is hits over total lookups (0 when no lookups yet).
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one content-addressed slot. ready is closed when val/err are
// final; until then followers block on it (or their ctx).
type entry struct {
	ready chan struct{}
	val   string
	err   error
}

// Backing is the optional durable second level under the in-memory
// cache (internal/store implements it over the filesystem). Get reports
// the payload stored under key, (_, false, nil) for a miss; Put durably
// writes it. Implementations must be safe for concurrent use and must
// treat detected corruption as a miss, never as a payload.
type Backing interface {
	Get(key string) (string, bool, error)
	Put(key, val string) error
}

// Cache maps content keys to computed results. The zero value is not
// usable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string // completed keys, oldest first, for FIFO eviction
	cap     int      // max completed entries; 0 = unbounded
	backing Backing  // optional durable second level (nil = memory only)

	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	backingHits atomic.Int64
	backingErrs atomic.Int64
}

// NewWithBacking layers the cache over a durable backing store:
// completed results are written through to it, and a lookup that misses
// memory consults it before computing — so a cache rebuilt after a
// restart serves the backing's prior results as hits. The memory bound
// and the backing's own capacity are independent: an entry evicted from
// memory remains durable, and vice versa. A nil backing is memory-only.
func NewWithBacking(capacity int, b Backing) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{entries: make(map[string]*entry), cap: capacity, backing: b}
}

// Get reports the completed in-memory result for key, if present.
// In-flight entries are invisible to Get (use Do to join them), and the
// backing store is not consulted (use Lookup). Get does not touch the
// hit/miss statistics — it is a peek, not a lookup.
func (c *Cache) Get(key string) (string, bool) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return "", false
	}
	select {
	case <-e.ready:
	default:
		return "", false
	}
	if e.err != nil {
		return "", false
	}
	return e.val, true
}

// Lookup is the counted read path: a result served — from memory or
// promoted up from the backing store — increments Hits (and
// BackingHits for the latter), so traffic answered by this lookup is
// visible in the hit ratio. A miss is not counted here: the caller's
// subsequent Do records it as the Miss when the computation actually
// runs. In-flight entries are invisible, as with Get.
//
//simlint:hotpath
func (c *Cache) Lookup(key string) (string, bool) {
	if val, ok := c.Get(key); ok {
		c.hits.Add(1)
		return val, true
	}
	if c.backing == nil {
		return "", false
	}
	val, ok, err := c.backing.Get(key)
	if err != nil {
		c.backingErrs.Add(1)
		return "", false
	}
	if !ok {
		return "", false
	}
	c.promote(key, val)
	c.hits.Add(1)
	c.backingHits.Add(1)
	return val, true
}

// Peek reports the result under key — memory first, then the durable
// backing — with no side effects: no statistics move and nothing is
// promoted into memory. It serves the cluster's peer-export endpoint,
// where other backends probe for entries they might copy; those probes
// must not inflate this node's hit ratio or reshape its cache. A
// backing read error reads as absent (the prober falls back to
// recomputing, which is always correct).
func (c *Cache) Peek(key string) (string, bool) {
	if val, ok := c.Get(key); ok {
		return val, true
	}
	if c.backing == nil {
		return "", false
	}
	val, ok, err := c.backing.Get(key)
	if err != nil || !ok {
		return "", false
	}
	return val, true
}

// promote installs a backing-store payload as a completed in-memory
// entry (no-op if key raced into existence meanwhile).
func (c *Cache) promote(key, val string) {
	e := &entry{ready: make(chan struct{}), val: val}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		return
	}
	c.entries[key] = e
	c.completeLocked(key)
}

// completeLocked appends key to the completed order and enforces the
// memory bound. Callers hold c.mu.
func (c *Cache) completeLocked(key string) {
	c.order = append(c.order, key)
	for c.cap > 0 && len(c.order) > c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
}

// Do returns the result for key, computing it with fn at most once per
// completed entry: the first caller for a key becomes the leader and
// runs fn; callers arriving while the leader is in flight coalesce onto
// the same run; callers after completion are served from the store.
// With a backing store, the leader first consults it — a durable prior
// result (for instance from before a daemon restart) is promoted to
// memory and returned as a Hit with fn never run — and every freshly
// computed result is written through to it.
//
// The outcome reports how this call was answered (Hit, Miss, or
// Coalesced in the Stats sense). Failed computations are not cached —
// the entry is removed so a later call may retry — but every coalesced
// waiter of the failed run receives the leader's error.
//
// ctx cancels only the *wait* of a coalesced caller (the leader's run
// is shared state and is cancelled by whoever owns its own context);
// a cancelled waiter returns ctx.Err() while the computation proceeds
// for the others.
func (c *Cache) Do(ctx context.Context, key string, fn func() (string, error)) (string, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, Hit, e.err
		default:
		}
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-e.ready:
			return e.val, Coalesced, e.err
		case <-ctx.Done():
			return "", Coalesced, ctx.Err()
		}
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// Leader. The backing store is consulted first (while followers
	// coalesce onto this in-flight entry), so one disk read serves all
	// of them and the computation is skipped entirely.
	outcome := Miss
	if c.backing != nil {
		switch val, ok, err := c.backing.Get(key); {
		case err != nil:
			c.backingErrs.Add(1)
		case ok:
			e.val = val
			outcome = Hit
			c.hits.Add(1)
			c.backingHits.Add(1)
		}
	}
	if outcome == Miss {
		c.misses.Add(1)
		e.val, e.err = fn()
		if e.err == nil && c.backing != nil {
			if err := c.backing.Put(key, e.val); err != nil {
				// Degrade to memory-only rather than failing the job:
				// the result is correct, it just isn't durable.
				c.backingErrs.Add(1)
			}
		}
	}

	c.mu.Lock()
	if e.err != nil {
		// Do not cache failures; let a future submission retry.
		delete(c.entries, key)
	} else {
		c.completeLocked(key)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, outcome, e.err
}

// Outcome describes how a Do call was answered.
type Outcome int

const (
	// Miss: this call ran the computation.
	Miss Outcome = iota
	// Hit: served from a completed entry.
	Hit
	// Coalesced: joined an in-flight computation.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Len reports the number of entries (completed + in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		BackingHits:   c.backingHits.Load(),
		BackingErrors: c.backingErrs.Load(),
	}
}
