// Package snapshot is the checkpoint/restore layer that makes long
// experiment-suite runs killable and resumable with byte-exact results.
//
// A Checkpoint is the completed prefix of a run: the spec key, the
// suite's experiment list, and the rendered output of every experiment
// finished so far. It encodes as one versioned JSON record —
// deterministic, so equal checkpoints encode to equal bytes. The record
// carries no checksum of its own: on disk it always sits inside the
// internal/store entry frame, whose CRC, atomic temp-plus-rename writes
// and corrupt-detect-delete reads mean a torn checkpoint is never
// resumed from (see WriteFile/ReadFile).
package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spp1000/internal/store"
)

// checkpointMagic is the first line of every encoded checkpoint, and
// the one place the format generation is written. Bump its version
// whenever the record's fields or their meaning change, so stale
// checkpoints read as unreadable (and are discarded) instead of
// misparsing. v1 and v2 were the retired section-archive formats.
const checkpointMagic = "spp-checkpoint-v3"

// Checkpoint is the resumable state of a partially completed experiment
// suite: the completed prefix of the run, exactly enough to finish the
// rest and end with output bytes equal to an uninterrupted run.
// Experiments are the suite's checkpoint boundaries — each is one
// indivisible deterministic simulation, so there is never anything
// mid-flight to serialize, only completed results to carry.
type Checkpoint struct {
	// SpecKey is the content address (experiments.Spec.Key) of the full
	// suite this checkpoint belongs to. Restore must refuse any other
	// spec: a checkpoint resumed under a different configuration would
	// silently splice unrelated outputs together.
	SpecKey string `json:"spec_key"`
	// Names is the full experiment list of the suite, in run order.
	Names []string `json:"names"`
	// Done holds the completed prefix: Done[i] is the rendered output of
	// Names[i]. len(Done) is the next checkpoint boundary.
	Done []ExperimentResult `json:"done"`
}

// ExperimentResult is one completed experiment's rendered output.
type ExperimentResult struct {
	// Name is the experiment id (from experiments.Names/Extra).
	Name string `json:"name"`
	// Output is the experiment's rendered text, byte-exact.
	Output string `json:"output"`
}

// Encode renders the checkpoint as the magic line followed by the
// record as JSON. Deterministic: equal checkpoints encode to equal
// bytes.
func (c *Checkpoint) Encode() []byte {
	// A struct of strings and slices of them always marshals.
	body, _ := json.Marshal(c)
	return append([]byte(checkpointMagic+"\n"), body...)
}

// DecodeCheckpoint validates and reconstructs an encoded checkpoint. A
// wrong magic line, malformed JSON, an unknown field, trailing bytes, a
// completed prefix longer than the suite, or a prefix out of suite
// order is an error: a checkpoint that does not round-trip exactly must
// never be resumed from.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	body, ok := bytes.CutPrefix(data, []byte(checkpointMagic+"\n"))
	if !ok {
		return nil, fmt.Errorf("snapshot: bad checkpoint header (want %q)", checkpointMagic)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	c := &Checkpoint{}
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("snapshot: malformed checkpoint: %v", err)
	}
	if dec.InputOffset() != int64(len(body)) {
		return nil, fmt.Errorf("snapshot: trailing bytes after the checkpoint record")
	}
	if len(c.Done) > len(c.Names) {
		return nil, fmt.Errorf("snapshot: %d completed experiments exceed the %d-name suite", len(c.Done), len(c.Names))
	}
	for i, r := range c.Done {
		if r.Name != c.Names[i] {
			return nil, fmt.Errorf("snapshot: completed experiment %d is %q, suite order says %q", i, r.Name, c.Names[i])
		}
	}
	return c, nil
}

// ErrCorrupt reports a checkpoint file that failed validation and was
// deleted, so callers start fresh instead of resuming damaged state.
var ErrCorrupt = errors.New("snapshot: checkpoint file corrupt (deleted; start fresh)")

// WriteFile persists the checkpoint at path through the store entry
// framing: the encoded record is wrapped in the CRC32 store frame,
// written to a temp file in the same directory, and published by one
// atomic rename — a crash mid-write leaves only an ignorable temp file,
// never a half-written checkpoint.
func WriteFile(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(store.Encode(string(c.Encode())))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: write %s: %w", path, err)
	}
	return nil
}

// ReadFile loads a checkpoint written by WriteFile. A missing file is
// (nil, os.ErrNotExist). A file that fails the store frame's CRC, or
// whose payload does not decode — a torn write, or a checkpoint in a
// retired format — is deleted and reported as ErrCorrupt: such
// checkpoints are recomputed from scratch, exactly like torn store
// entries.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, os.ErrNotExist
		}
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	payload, ok := store.Decode(data)
	if !ok {
		os.Remove(path)
		return nil, ErrCorrupt
	}
	c, err := DecodeCheckpoint([]byte(payload))
	if err != nil {
		os.Remove(path)
		return nil, ErrCorrupt
	}
	return c, nil
}
