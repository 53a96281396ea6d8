package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/store"
)

func TestArchiveRoundTrip(t *testing.T) {
	a := New()
	if err := a.Add("meta", []byte("speckey=abc\n")); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("outputs", []byte("payload with\nembedded newlines\nand no terminator")); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("empty", nil); err != nil {
		t.Fatal(err)
	}
	enc := a.Encode()
	b, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, name := range []string{"meta", "outputs", "empty"} {
		want, _ := a.Section(name)
		got, ok := b.Section(name)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("section %s: got %q want %q (ok=%v)", name, got, want, ok)
		}
	}
	if !bytes.Equal(b.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestArchiveAddRejects(t *testing.T) {
	a := New()
	for _, name := range []string{"", "Upper", "has space", "x\ny", strings.Repeat("a", 65)} {
		if err := a.Add(name, nil); err == nil {
			t.Fatalf("Add(%q) accepted an invalid name", name)
		}
	}
	if err := a.Add("dup", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("dup", nil); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestArchiveDecodeRejectsCorruption(t *testing.T) {
	a := New()
	a.Add("meta", []byte("hello world"))
	a.Add("data", bytes.Repeat([]byte{0xAB}, 64))
	enc := a.Encode()

	cases := map[string][]byte{
		"bad magic":      append([]byte("spp-snapshot-v9\n"), enc[len(archiveMagic)+1:]...),
		"truncated":      enc[:len(enc)/2],
		"no newline":     []byte(archiveMagic),
		"trailing bytes": append(append([]byte(nil), enc...), []byte("extra")...),
		"empty":          nil,
	}
	// A single flipped bit inside a section payload must fail the CRC.
	flipped := append([]byte(nil), enc...)
	flipped[bytes.Index(flipped, []byte("hello"))] ^= 0x01
	cases["bit flip"] = flipped
	// A section declaring more bytes than the archive holds.
	cases["overlong decl"] = []byte(archiveMagic + "\nsection meta 9999\nxx\nend 1 00000000\n")

	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Fatalf("%s: Decode accepted corrupt input", name)
		}
	}

	// Sanity: the untouched encoding still decodes.
	if _, err := Decode(enc); err != nil {
		t.Fatalf("pristine archive failed: %v", err)
	}
}

func testCheckpoint() *Checkpoint {
	reg := counters.NewRegistry()
	g := reg.Group("cpu0.pmu")
	g.Counter("cache_miss").Add(42)
	g.Counter("cycles").Add(1000)
	return &Checkpoint{
		SpecKey:   "abcdef0123456789",
		Names:     []string{"fig2", "tab1", "fig6"},
		Done:      []ExperimentResult{{Name: "fig2", Output: "line one\nline two\n"}, {Name: "tab1", Output: ""}},
		SimCycles: 123456,
		SimEvents: 789,
		Counters:  reg.Snapshot(),
	}
}

// v1Archive renders c the way the v1 format wrote it: the
// spp-snapshot-v1 magic, and a fourth section of region signatures
// after the counters.
func v1Archive(c *Checkpoint) []byte {
	a, _ := Decode(c.Encode())
	var b bytes.Buffer
	b.WriteString("spp-snapshot-v1\n")
	for _, name := range []string{sectionMeta, sectionOutputs, sectionCounters} {
		data, _ := a.Section(name)
		fmt.Fprintf(&b, "section %s %d\n%s\n", name, len(data), data)
	}
	regions := `[{"name":"fig2","cycles":100000,"events":500,"digest":"` + strings.Repeat("0", 64) + `"}]`
	fmt.Fprintf(&b, "section regions %d\n%s\n", len(regions), regions)
	fmt.Fprintf(&b, "end 4 %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint()
	enc := c.Encode()
	if !bytes.Equal(enc, c.Encode()) {
		t.Fatal("Encode is not deterministic")
	}
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, c)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestCheckpointDecodeStrictness(t *testing.T) {
	base := testCheckpoint()

	// Done[i] out of suite order.
	swapped := testCheckpoint()
	swapped.Done[0], swapped.Done[1] = swapped.Done[1], swapped.Done[0]
	if _, err := DecodeCheckpoint(swapped.Encode()); err == nil {
		t.Fatal("out-of-order Done accepted")
	}

	// More completions than names.
	over := testCheckpoint()
	over.Names = over.Names[:1]
	if _, err := DecodeCheckpoint(over.Encode()); err == nil {
		t.Fatal("Done longer than Names accepted")
	}

	// An unknown meta key (a future field leaking into v1).
	a, err := Decode(base.Encode())
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := a.Section(sectionMeta)
	b := New()
	b.Add(sectionMeta, append(append([]byte(nil), meta...), []byte("mystery=1\n")...))
	outs, _ := a.Section(sectionOutputs)
	b.Add(sectionOutputs, outs)
	if _, err := DecodeCheckpoint(b.Encode()); err == nil {
		t.Fatal("unknown meta key accepted")
	}

	// Missing meta section entirely.
	noMeta := New()
	noMeta.Add(sectionOutputs, outs)
	if _, err := DecodeCheckpoint(noMeta.Encode()); err == nil {
		t.Fatal("missing meta section accepted")
	}

	// An output whose declared length disagrees with the payload.
	tampered := New()
	tampered.Add(sectionMeta, meta)
	tampered.Add(sectionOutputs, []byte("exp fig2 999\nshort\n"))
	if _, err := DecodeCheckpoint(tampered.Encode()); err == nil {
		t.Fatal("output length mismatch accepted")
	}

	// A stale v1 checkpoint, still carrying its regions section: it must
	// not decode, and on disk it is deleted and reported corrupt.
	v1 := v1Archive(base)
	if _, err := DecodeCheckpoint(v1); err == nil {
		t.Fatal("v1 archive accepted")
	}
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	os.WriteFile(path, store.Encode(string(v1)), 0o644)
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 file: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("v1 file was not deleted")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "run.ckpt")
	c := testCheckpoint()
	if err := WriteFile(path, c); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatal("file round trip diverged")
	}
	// No temp litter after a clean write.
	ents, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-ckpt-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestReadFileCorruptDeletes(t *testing.T) {
	dir := t.TempDir()

	// Garbage that fails the store frame.
	p1 := filepath.Join(dir, "garbage.ckpt")
	os.WriteFile(p1, []byte("not a checkpoint"), 0o644)
	if _, err := ReadFile(p1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatal("corrupt file was not deleted")
	}

	// A valid store frame wrapping a torn archive: write a real
	// checkpoint, then truncate it so both frames break.
	p2 := filepath.Join(dir, "torn.ckpt")
	if err := WriteFile(p2, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(p2)
	os.WriteFile(p2, data[:len(data)-10], 0o644)
	if _, err := ReadFile(p2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(p2); !os.IsNotExist(err) {
		t.Fatal("torn file was not deleted")
	}
}
