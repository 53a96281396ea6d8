package resultcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOncePerKey(t *testing.T) {
	c := New(0)
	var runs atomic.Int64
	fn := func() (string, error) { runs.Add(1); return "r", nil }

	v, out, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "r" || out != Miss {
		t.Fatalf("first Do = %q, %v, %v; want r, miss, nil", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != "r" || out != Hit {
		t.Fatalf("second Do = %q, %v, %v; want r, hit, nil", v, out, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if got, ok := c.Get("k"); !ok || got != "r" {
		t.Fatalf("Get = %q, %v; want r, true", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if r := s.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r)
	}
}

// TestDoCoalescesConcurrent: many goroutines requesting the same key
// while the computation is in flight share one run.
func TestDoCoalescesConcurrent(t *testing.T) {
	c := New(0)
	var runs atomic.Int64
	inFn := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	leaderDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(context.Background(), "k", func() (string, error) {
			close(inFn)
			<-release
			runs.Add(1)
			return "shared", nil
		})
		leaderDone <- err
	}()
	<-inFn // leader is inside fn; everyone below must coalesce

	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func() (string, error) {
				return "", errors.New("second run must not happen")
			})
			// A waiter that reaches Do after the leader completes is a
			// legitimate Hit; what may never happen is a second run.
			if err == nil && (v != "shared" || out == Miss) {
				err = fmt.Errorf("got %q, %v; want shared via hit or coalesce", v, out)
			}
			errs <- err
		}()
	}
	// Let all waiters block, then release the leader. A sleep-free
	// handshake is impossible here (waiters park inside Do), but the
	// assertion below does not depend on when release happens.
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want 1", runs.Load())
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits+s.Coalesced != waiters {
		t.Fatalf("stats = %+v, want 1 miss and %d hit+coalesced", s, waiters)
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (string, error) { calls++; return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed result should not be cached")
	}
	v, out, err := c.Do(context.Background(), "k", func() (string, error) { calls++; return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Fatalf("retry = %q, %v, %v", v, out, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (failure then retry)", calls)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New(0)
	inFn := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func() (string, error) {
		close(inFn)
		<-release
		return "late", nil
	})
	<-inFn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) || out != Coalesced {
		t.Fatalf("cancelled waiter = %v, %v; want coalesced, context.Canceled", out, err)
	}
	close(release)
	// The leader's result must still land for future callers.
	v, _, err := c.Do(context.Background(), "k", nil)
	if err != nil || v != "late" {
		t.Fatalf("post-cancel Do = %q, %v", v, err)
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), key, func() (string, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted (FIFO, cap 2)")
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should survive", key)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestDoConcurrentDistinctKeys: hammer the cache from many goroutines
// across a small key space; every call must observe the key's value and
// the run count per key must be exactly one. Run with -race.
func TestDoConcurrentDistinctKeys(t *testing.T) {
	c := New(0)
	const keys = 8
	var runs [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4*keys; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % keys
			v, _, err := c.Do(context.Background(), fmt.Sprintf("k%d", k), func() (string, error) {
				runs[k].Add(1)
				return fmt.Sprintf("v%d", k), nil
			})
			if err != nil || v != fmt.Sprintf("v%d", k) {
				t.Errorf("key %d: got %q, %v", k, v, err)
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := runs[k].Load(); n != 1 {
			t.Fatalf("key %d ran %d times, want 1", k, n)
		}
	}
}

// fakeBacking is an in-memory Backing with injectable failures, for
// exercising the durable layer without a filesystem.
type fakeBacking struct {
	mu     sync.Mutex
	m      map[string]string
	getErr error
	putErr error
	gets   int
	puts   int
}

func newFakeBacking() *fakeBacking { return &fakeBacking{m: make(map[string]string)} }

func (b *fakeBacking) Get(key string) (string, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	if b.getErr != nil {
		return "", false, b.getErr
	}
	v, ok := b.m[key]
	return v, ok, nil
}

func (b *fakeBacking) Put(key, val string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	if b.putErr != nil {
		return b.putErr
	}
	b.m[key] = val
	return nil
}

// TestBackingWriteThroughAndReadThrough: a computed result lands in the
// backing store, and a fresh cache over the same backing serves it as a
// Hit without running the computation — the restart survival property.
func TestBackingWriteThroughAndReadThrough(t *testing.T) {
	b := newFakeBacking()
	c1 := NewWithBacking(0, b)
	v, out, err := c1.Do(context.Background(), "k", func() (string, error) { return "computed", nil })
	if err != nil || v != "computed" || out != Miss {
		t.Fatalf("Do = %q, %v, %v", v, out, err)
	}
	if b.m["k"] != "computed" {
		t.Fatalf("backing not written through: %v", b.m)
	}

	// "Restart": a brand-new cache, same backing.
	c2 := NewWithBacking(0, b)
	v, out, err = c2.Do(context.Background(), "k", func() (string, error) {
		return "", errors.New("must not recompute a durable result")
	})
	if err != nil || v != "computed" || out != Hit {
		t.Fatalf("restarted Do = %q, %v, %v; want durable hit", v, out, err)
	}
	s := c2.Stats()
	if s.Hits != 1 || s.BackingHits != 1 || s.Misses != 0 {
		t.Fatalf("restarted stats = %+v", s)
	}
	// Promoted to memory: the next read does not touch the disk again.
	gets := b.gets
	if v, out, _ := c2.Do(context.Background(), "k", nil); v != "computed" || out != Hit {
		t.Fatalf("memory hit = %q, %v", v, out)
	}
	if b.gets != gets {
		t.Fatalf("memory hit went to backing (%d reads)", b.gets-gets)
	}
}

// TestLookupCountsHits: the counted peek serves from memory and from
// the backing store, incrementing Hits both ways, and counts nothing on
// a miss (the later Do records the Miss).
func TestLookupCountsHits(t *testing.T) {
	b := newFakeBacking()
	b.m["disk"] = "from disk"
	c := NewWithBacking(0, b)

	if _, ok := c.Lookup("absent"); ok {
		t.Fatal("Lookup of absent key hit")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("miss was counted: %+v", s)
	}

	if v, ok := c.Lookup("disk"); !ok || v != "from disk" {
		t.Fatalf("Lookup(disk) = %q, %v", v, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.BackingHits != 1 {
		t.Fatalf("stats after disk lookup = %+v", s)
	}

	c.Do(context.Background(), "mem", func() (string, error) { return "in memory", nil })
	if v, ok := c.Lookup("mem"); !ok || v != "in memory" {
		t.Fatalf("Lookup(mem) = %q, %v", v, ok)
	}
	if s := c.Stats(); s.Hits != 2 || s.BackingHits != 1 || s.Misses != 1 {
		t.Fatalf("stats after memory lookup = %+v", s)
	}
}

// TestBackingFailuresDegradeGracefully: a failing backing read computes
// instead; a failing write keeps the result memory-only. Both count
// BackingErrors and neither fails the caller.
func TestBackingFailuresDegradeGracefully(t *testing.T) {
	b := newFakeBacking()
	b.getErr = errors.New("read io error")
	b.putErr = errors.New("write io error")
	c := NewWithBacking(0, b)

	v, out, err := c.Do(context.Background(), "k", func() (string, error) { return "computed", nil })
	if err != nil || v != "computed" || out != Miss {
		t.Fatalf("Do = %q, %v, %v", v, out, err)
	}
	if len(b.m) != 0 {
		t.Fatalf("failed Put stored anyway: %v", b.m)
	}
	// Still served from memory afterwards.
	if v, ok := c.Lookup("k"); !ok || v != "computed" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
	if _, ok := c.Lookup("other"); ok {
		t.Fatal("Lookup hit through a failing backing")
	}
	if s := c.Stats(); s.BackingErrors != 3 { // Do read + Do write + Lookup read
		t.Fatalf("stats = %+v, want 3 backing errors", s)
	}
}

// TestBackingMemoryEvictionKeepsDurable: an entry evicted from the
// bounded memory tier is still served from the backing store.
func TestBackingMemoryEvictionKeepsDurable(t *testing.T) {
	b := newFakeBacking()
	c := NewWithBacking(1, b)
	c.Do(context.Background(), "k0", func() (string, error) { return "v0", nil })
	c.Do(context.Background(), "k1", func() (string, error) { return "v1", nil }) // evicts k0 from memory
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should be evicted from memory")
	}
	v, out, err := c.Do(context.Background(), "k0", func() (string, error) {
		return "", errors.New("durable entry recomputed")
	})
	if err != nil || v != "v0" || out != Hit {
		t.Fatalf("evicted-but-durable Do = %q, %v, %v", v, out, err)
	}
}

// New returns a memory-only cache bounded to capacity completed
// entries; capacity <= 0 means unbounded. In-flight computations never
// count against the bound (evicting them would orphan waiters).
func New(capacity int) *Cache {
	return NewWithBacking(capacity, nil)
}
