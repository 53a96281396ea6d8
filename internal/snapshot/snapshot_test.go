package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spp1000/internal/store"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		SpecKey: "abcdef0123456789",
		Names:   []string{"fig2", "tab1", "fig6"},
		Done:    []ExperimentResult{{Name: "fig2", Output: "line one\nline two\n"}, {Name: "tab1", Output: ""}},
	}
}

// v2Checkpoint is a frozen checkpoint in the retired spp-snapshot-v2
// format (a CRC-framed archive of meta, outputs and counters sections),
// byte for byte as that format wrote it. internal/service's
// stale-prior test holds the same bytes.
const v2Checkpoint = `spp-snapshot-v2
section meta 114
speckey=745874d758bd6a15c45aff5f1ec8c8b167d0802f5f76886e0d0aa2dc4ac4e94a
names=fig2,fig3
cycles=0
events=0
done=1

section outputs 30
exp fig2 17
stale fig2 output

section counters 15
{"groups":null}
end 3 a573ccda
`

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
	enc := testCheckpoint().Encode()
	record := func(body string) []byte { return []byte(checkpointMagic + "\n" + body) }

	// Done[i] out of suite order.
	swapped := testCheckpoint()
	swapped.Done[0], swapped.Done[1] = swapped.Done[1], swapped.Done[0]
	// More completions than names.
	over := testCheckpoint()
	over.Names = over.Names[:1]

	cases := map[string][]byte{
		"empty":           nil,
		"wrong magic":     append([]byte("spp-checkpoint-v9\n"), enc[len(checkpointMagic)+1:]...),
		"no magic":        enc[len(checkpointMagic)+1:],
		"retired v2":      []byte(v2Checkpoint),
		"malformed JSON":  record(`{"spec_key":"abc","names":["fig2"`),
		"wrong JSON type": record(`{"spec_key":"abc","names":"fig2"}`),
		"unknown field":   record(`{"spec_key":"abc","names":["fig2"],"done":[],"sim_cycles":1}`),
		"unknown nested":  record(`{"spec_key":"abc","names":["fig2"],"done":[{"name":"fig2","output":"","cycles":1}]}`),
		"trailing bytes":  append(append([]byte(nil), enc...), "{}"...),
		"trailing space":  append(append([]byte(nil), enc...), '\n'),
		"out of order":    swapped.Encode(),
		"Done > Names":    over.Encode(),
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: DecodeCheckpoint accepted %q", name, data)
		}
	}

	// A retired-format checkpoint on disk, in an intact store frame, is
	// deleted and reported corrupt.
	path := filepath.Join(t.TempDir(), "v2.ckpt")
	os.WriteFile(path, store.Encode(v2Checkpoint), 0o644)
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 file: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("v2 file was not deleted")
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

	// A torn write: a real checkpoint cut short fails the store frame's
	// declared length.
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

	// One flipped bit inside an output string ("line one" becomes
	// "mine one"): the payload still decodes as a valid checkpoint, so
	// the store frame's CRC alone must catch it.
	p3 := filepath.Join(dir, "flipped.ckpt")
	if err := WriteFile(p3, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(p3)
	data[bytes.Index(data, []byte("line one"))] ^= 0x01
	payload := data[bytes.Index(data, []byte(checkpointMagic)):]
	if _, err := DecodeCheckpoint(payload); err != nil {
		t.Fatalf("flipped payload should still decode, so only the frame can catch it: %v", err)
	}
	os.WriteFile(p3, data, 0o644)
	if _, err := ReadFile(p3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(p3); !os.IsNotExist(err) {
		t.Fatal("bit-flipped file was not deleted")
	}
}
