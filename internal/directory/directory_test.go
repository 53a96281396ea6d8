package directory

import (
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
	"spp1000/internal/topology"
)

var lineA = topology.LineKey{Space: 1, Line: 100}

func TestReadAddsSharer(t *testing.T) {
	d := New(0)
	cpu := topology.MakeCPU(0, 1, 0)
	acts := d.RecordRead(lineA, cpu)
	if acts.HasDirtyOwner {
		t.Fatal("cold read should find no dirty owner")
	}
	sh := d.Sharers(lineA)
	if len(sh) != 1 || sh[0] != cpu {
		t.Fatalf("sharers = %v, want [%v]", sh, cpu)
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	d := New(0)
	readers := []topology.CPUID{
		topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 1), topology.MakeCPU(0, 3, 0),
	}
	for _, c := range readers {
		d.RecordRead(lineA, c)
	}
	writer := topology.MakeCPU(0, 2, 0)
	acts := d.RecordWrite(lineA, writer)
	if len(acts.InvalidateLocal) != 3 {
		t.Fatalf("invalidated %d copies, want 3", len(acts.InvalidateLocal))
	}
	if owner, ok := d.Owner(lineA); !ok || owner != writer {
		t.Fatalf("owner = %v,%v, want %v", owner, ok, writer)
	}
	if len(d.Sharers(lineA)) != 1 {
		t.Fatal("write should leave exactly one presence bit")
	}
}

func TestReadAfterWriteIntervenes(t *testing.T) {
	d := New(0)
	writer := topology.MakeCPU(0, 0, 0)
	d.RecordWrite(lineA, writer)
	reader := topology.MakeCPU(0, 1, 0)
	acts := d.RecordRead(lineA, reader)
	if !acts.HasDirtyOwner || acts.DirtyOwner != writer {
		t.Fatalf("read should intervene on dirty owner; got %+v", acts)
	}
	if _, ok := d.Owner(lineA); ok {
		t.Fatal("line should be clean (shared) after the intervention")
	}
	if len(d.Sharers(lineA)) != 2 {
		t.Fatalf("sharers = %v, want both CPUs", d.Sharers(lineA))
	}
}

func TestWriteAfterWriteChangesOwner(t *testing.T) {
	d := New(0)
	first := topology.MakeCPU(0, 0, 0)
	second := topology.MakeCPU(0, 2, 1)
	d.RecordWrite(lineA, first)
	acts := d.RecordWrite(lineA, second)
	if !acts.HasPreviousOwner || acts.PreviousOwner != first {
		t.Fatalf("expected writeback from %v, got %+v", first, acts)
	}
	if owner, _ := d.Owner(lineA); owner != second {
		t.Fatalf("owner = %v, want %v", owner, second)
	}
}

func TestRewriteByOwnerIsQuiet(t *testing.T) {
	d := New(0)
	cpu := topology.MakeCPU(0, 0, 0)
	d.RecordWrite(lineA, cpu)
	acts := d.RecordWrite(lineA, cpu)
	if acts.HasPreviousOwner || len(acts.InvalidateLocal) != 0 {
		t.Fatalf("owner rewriting its own line should cost nothing: %+v", acts)
	}
}

func TestDropCPU(t *testing.T) {
	d := New(0)
	a, b := topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0)
	d.RecordRead(lineA, a)
	d.RecordRead(lineA, b)
	d.DropCPU(lineA, a)
	if sh := d.Sharers(lineA); len(sh) != 1 || sh[0] != b {
		t.Fatalf("sharers after drop = %v", sh)
	}
	d.DropCPU(lineA, b)
	if d.Entries() != 0 {
		t.Fatal("empty line should be untracked")
	}
	// Dropping from an untracked line must be a no-op.
	d.DropCPU(lineA, a)
}

func TestPurgeLine(t *testing.T) {
	d := New(1)
	a, b := topology.MakeCPU(1, 0, 0), topology.MakeCPU(1, 3, 1)
	d.RecordRead(lineA, a)
	d.RecordRead(lineA, b)
	victims := d.PurgeLine(lineA)
	if len(victims) != 2 {
		t.Fatalf("purge returned %v, want 2 victims", victims)
	}
	if d.Entries() != 0 {
		t.Fatal("purged line should be gone")
	}
}

func TestForeignCPUPanics(t *testing.T) {
	d := New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("directory must reject CPUs from other hypernodes")
		}
	}()
	d.RecordRead(lineA, topology.MakeCPU(1, 0, 0))
}

// Property: after any sequence of reads/writes/drops, invariants hold:
// presence masks non-empty, dirty lines exclusively owned.
func TestInvariantsUnderRandomOps(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		d := New(0)
		lines := []topology.LineKey{
			{Space: 1, Line: 1}, {Space: 1, Line: 2}, {Space: 2, Line: 1},
		}
		for i := 0; i < 200; i++ {
			key := lines[rnd.Intn(len(lines))]
			cpu := topology.CPUID(rnd.Intn(8))
			switch rnd.Intn(3) {
			case 0:
				d.RecordRead(key, cpu)
			case 1:
				d.RecordWrite(key, cpu)
			case 2:
				d.DropCPU(key, cpu)
			}
			if err := d.CheckInvariants(); err != nil {
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

// Property: a write always leaves the writer as sole sharer and owner.
func TestWriteExclusivityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		d := New(0)
		key := topology.LineKey{Space: 3, Line: uint64(rnd.Intn(100))}
		for i := 0; i < 10; i++ {
			d.RecordRead(key, topology.CPUID(rnd.Intn(8)))
		}
		w := topology.CPUID(rnd.Intn(8))
		d.RecordWrite(key, w)
		sh := d.Sharers(key)
		owner, ok := d.Owner(key)
		return len(sh) == 1 && sh[0] == w && ok && owner == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Entries reports the number of tracked lines.
func (d *Directory) Entries() int { return len(d.entries) }
