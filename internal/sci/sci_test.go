package sci

import (
	"testing"
	"testing/quick"

	"spp1000/internal/counters"
	"spp1000/internal/rng"
	"spp1000/internal/topology"
)

var line = topology.LineKey{Space: 1, Line: 42}

func TestAttachPrependsAtHead(t *testing.T) {
	p := New(4)
	if pos := p.Attach(line, 0, 1); pos != 0 {
		t.Fatalf("first attach position = %d, want 0", pos)
	}
	if pos := p.Attach(line, 0, 2); pos != 0 {
		t.Fatalf("second attach position = %d, want 0 (prepend)", pos)
	}
	want := []int{2, 1}
	got := p.Sharers(line)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sharers = %v, want %v (head first)", got, want)
	}
}

func TestAttachIdempotent(t *testing.T) {
	p := New(4)
	p.Attach(line, 0, 1)
	p.Attach(line, 0, 2)
	if pos := p.Attach(line, 0, 1); pos != 1 {
		t.Fatalf("re-attach position = %d, want existing position 1", pos)
	}
	if p.ListLength(line) != 2 {
		t.Fatal("re-attach must not grow the list")
	}
}

func TestHomeNeverBuffersItsOwnLine(t *testing.T) {
	p := New(4)
	if pos := p.Attach(line, 0, 0); pos != -1 {
		t.Fatalf("home attach position = %d, want -1", pos)
	}
	if p.InBuffer(0, line) {
		t.Fatal("home must not buffer its own line")
	}
	if p.ListLength(line) != 0 {
		t.Fatal("home attach must not create a list")
	}
}

func TestBufferTracking(t *testing.T) {
	p := New(4)
	p.Attach(line, 0, 3)
	if !p.InBuffer(3, line) {
		t.Fatal("attached hypernode should hold a buffered copy")
	}
	if p.InBuffer(1, line) {
		t.Fatal("unrelated hypernode should not")
	}
}

func TestDetach(t *testing.T) {
	p := New(4)
	p.Attach(line, 0, 1)
	p.Attach(line, 0, 2)
	if !p.Detach(line, 1) {
		t.Fatal("detach should find hn1")
	}
	if p.InBuffer(1, line) {
		t.Fatal("detached copy should leave the buffer")
	}
	if got := p.Sharers(line); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sharers = %v, want [2]", got)
	}
	if p.Detach(line, 1) {
		t.Fatal("double detach should report absence")
	}
	p.Detach(line, 2)
	if p.Lines() != 0 {
		t.Fatal("empty list should be deleted")
	}
}

func TestPurgeWalksWholeList(t *testing.T) {
	p := New(8)
	reg := counters.NewRegistry()
	p.AttachCounters(reg.Group("sci"))
	for hn := 1; hn < 6; hn++ {
		p.Attach(line, 0, hn)
	}
	victims := p.Purge(line)
	if len(victims) != 5 {
		t.Fatalf("purged %d copies, want 5", len(victims))
	}
	// Walk order is head-first: most recent attach first.
	for i, hn := range victims {
		if hn != 5-i {
			t.Fatalf("walk order %v, want head-first [5 4 3 2 1]", victims)
		}
	}
	for hn := 1; hn < 6; hn++ {
		if p.InBuffer(hn, line) {
			t.Fatalf("hn%d still buffers the purged line", hn)
		}
	}
	if n := reg.Snapshot().Counter("sci", "purged_copies"); n != 5 {
		t.Fatalf("purged_copies = %d, want 5", n)
	}
}

func TestPurgeExceptKeepsWriterHypernode(t *testing.T) {
	p := New(4)
	p.Attach(line, 0, 1)
	p.Attach(line, 0, 2)
	p.Attach(line, 0, 3)
	victims := p.PurgeExcept(line, 2)
	if len(victims) != 2 {
		t.Fatalf("victims = %v, want 2 entries", victims)
	}
	if !p.InBuffer(2, line) {
		t.Fatal("kept hypernode should retain its buffered copy")
	}
	if got := p.Sharers(line); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sharers = %v, want [2]", got)
	}
	// Keep absent from the list: behaves like a full purge.
	p2 := New(4)
	p2.Attach(line, 0, 1)
	p2.PurgeExcept(line, 3)
	if p2.Lines() != 0 {
		t.Fatal("purge-except with absent keeper should delete the list")
	}
}

func TestPurgeEmpty(t *testing.T) {
	p := New(2)
	if v := p.Purge(line); v != nil {
		t.Fatalf("purging an unshared line returned %v", v)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range hypernode")
		}
	}()
	p.Attach(line, 0, 5)
}

// Property: invariants hold under arbitrary attach/detach/purge sequences.
func TestInvariantsUnderRandomOps(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		p := New(4)
		keys := []topology.LineKey{
			{Space: 1, Line: 1}, {Space: 1, Line: 2}, {Space: 2, Line: 7},
		}
		for i := 0; i < 300; i++ {
			key := keys[rnd.Intn(len(keys))]
			hn := rnd.Intn(4)
			switch rnd.Intn(4) {
			case 0, 1:
				p.Attach(key, 0, hn)
			case 2:
				p.Detach(key, hn)
			case 3:
				if rnd.Intn(2) == 0 {
					p.Purge(key)
				} else {
					p.PurgeExcept(key, hn)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: list length equals the number of distinct attached sharers
// (excluding the home), regardless of attach order or repetition.
func TestListLengthProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		p := New(8)
		distinct := map[int]bool{}
		for _, r := range raw {
			hn := int(r) % 8
			p.Attach(line, 0, hn)
			if hn != 0 {
				distinct[hn] = true
			}
		}
		return p.ListLength(line) == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Sharers returns the sharing list (head first), excluding the home.
func (p *Protocol) Sharers(key topology.LineKey) []int {
	l, ok := p.lines[key]
	if !ok {
		return nil
	}
	out := make([]int, len(l.sharers))
	copy(out, l.sharers)
	return out
}

// ListLength reports the sharing-list length for the line.
func (p *Protocol) ListLength(key topology.LineKey) int {
	l, ok := p.lines[key]
	if !ok {
		return 0
	}
	return len(l.sharers)
}

// Lines reports how many lines currently have sharing lists.
func (p *Protocol) Lines() int { return len(p.lines) }
