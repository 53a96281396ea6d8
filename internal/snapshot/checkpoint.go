package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spp1000/internal/counters"
	"spp1000/internal/store"
)

// Checkpoint is the resumable state of a partially completed experiment
// suite: the completed prefix of the run, exactly enough to finish the
// rest and end with output bytes and sim-* counter totals equal to an
// uninterrupted run. Experiments are the suite's checkpoint boundaries
// — each is one indivisible deterministic simulation, so there is never
// anything mid-flight to serialize, only completed results to carry.
type Checkpoint struct {
	// SpecKey is the content address (experiments.Spec.Key) of the full
	// suite this checkpoint belongs to. Restore must refuse any other
	// spec: a checkpoint resumed under a different configuration would
	// silently splice unrelated outputs together.
	SpecKey string
	// Names is the full experiment list of the suite, in run order.
	Names []string
	// Done holds the completed prefix: Done[i] is the rendered output of
	// Names[i]. len(Done) is the next checkpoint boundary.
	Done []ExperimentResult
	// SimCycles and SimEvents are the process-wide sim totals consumed
	// by the completed prefix (sampled as deltas around the runs), so a
	// resumed run reports exactly the totals an uninterrupted run would.
	SimCycles int64
	// SimEvents is the event-count counterpart of SimCycles.
	SimEvents int64
	// Counters is the merged PMU snapshot of the completed prefix; a
	// resumed run seeds its collector with it so final counter totals
	// are exactly equal to an uninterrupted run's.
	Counters counters.Snapshot
}

// Section names of the checkpoint archive, in encode order.
const (
	sectionMeta     = "meta"
	sectionOutputs  = "outputs"
	sectionCounters = "counters"
)

// Encode renders the checkpoint as a versioned, CRC-framed Archive.
// Deterministic: equal checkpoints encode to equal bytes.
func (c *Checkpoint) Encode() []byte {
	a := New()
	var meta bytes.Buffer
	fmt.Fprintf(&meta, "speckey=%s\n", c.SpecKey)
	fmt.Fprintf(&meta, "names=%s\n", strings.Join(c.Names, ","))
	fmt.Fprintf(&meta, "cycles=%d\n", c.SimCycles)
	fmt.Fprintf(&meta, "events=%d\n", c.SimEvents)
	fmt.Fprintf(&meta, "done=%d\n", len(c.Done))
	a.Add(sectionMeta, meta.Bytes())

	var outs bytes.Buffer
	for _, r := range c.Done {
		fmt.Fprintf(&outs, "exp %s %d\n%s\n", r.Name, len(r.Output), r.Output)
	}
	a.Add(sectionOutputs, outs.Bytes())

	// counters.Snapshot is a sorted slice, so encoding/json renders it
	// deterministically.
	cj, _ := json.Marshal(c.Counters)
	a.Add(sectionCounters, cj)
	return a.Encode()
}

// ExperimentResult is one completed experiment's rendered output.
type ExperimentResult struct {
	// Name is the experiment id (from experiments.Names/Extra).
	Name string `json:"name"`
	// Output is the experiment's rendered text, byte-exact.
	Output string `json:"output"`
}

// DecodeCheckpoint validates and reconstructs an encoded checkpoint.
// Every framing violation — archive CRC, missing sections, malformed
// meta, output-length mismatches — is an error; a checkpoint that does
// not round-trip exactly must never be resumed from.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	a, err := Decode(data)
	if err != nil {
		return nil, err
	}
	meta, ok := a.Section(sectionMeta)
	if !ok {
		return nil, fmt.Errorf("snapshot: checkpoint missing %s section", sectionMeta)
	}
	c := &Checkpoint{}
	doneCount := -1
	for _, line := range strings.Split(strings.TrimRight(string(meta), "\n"), "\n") {
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("snapshot: malformed meta line %q", line)
		}
		switch key {
		case "speckey":
			c.SpecKey = val
		case "names":
			if val != "" {
				c.Names = strings.Split(val, ",")
			}
		case "cycles":
			c.SimCycles, err = strconv.ParseInt(val, 10, 64)
		case "events":
			c.SimEvents, err = strconv.ParseInt(val, 10, 64)
		case "done":
			doneCount, err = strconv.Atoi(val)
		default:
			// Unknown keys are an error: meta is versioned via the archive
			// magic, so within one version the vocabulary is closed.
			return nil, fmt.Errorf("snapshot: unknown meta key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: malformed meta value %q: %v", line, err)
		}
	}
	outs, ok := a.Section(sectionOutputs)
	if !ok {
		return nil, fmt.Errorf("snapshot: checkpoint missing %s section", sectionOutputs)
	}
	rest := outs
	for len(rest) > 0 {
		head, after, err := cutLine(rest)
		if err != nil {
			return nil, fmt.Errorf("snapshot: truncated outputs section")
		}
		fields := strings.Fields(head)
		if len(fields) != 3 || fields[0] != "exp" {
			return nil, fmt.Errorf("snapshot: malformed output header %q", head)
		}
		n, cerr := strconv.Atoi(fields[2])
		if cerr != nil || n < 0 || n+1 > len(after) || after[n] != '\n' {
			return nil, fmt.Errorf("snapshot: output %q length %s does not match the payload", fields[1], fields[2])
		}
		c.Done = append(c.Done, ExperimentResult{Name: fields[1], Output: string(after[:n])})
		rest = after[n+1:]
	}
	if doneCount != len(c.Done) {
		return nil, fmt.Errorf("snapshot: meta declares %d completed experiments, outputs section holds %d", doneCount, len(c.Done))
	}
	if len(c.Done) > len(c.Names) {
		return nil, fmt.Errorf("snapshot: %d completed experiments exceed the %d-name suite", len(c.Done), len(c.Names))
	}
	for i, r := range c.Done {
		if r.Name != c.Names[i] {
			return nil, fmt.Errorf("snapshot: completed experiment %d is %q, suite order says %q", i, r.Name, c.Names[i])
		}
	}
	if cj, ok := a.Section(sectionCounters); ok && len(cj) > 0 {
		if err := json.Unmarshal(cj, &c.Counters); err != nil {
			return nil, fmt.Errorf("snapshot: bad counters section: %v", err)
		}
	}
	return c, nil
}

// ErrCorrupt reports a checkpoint file that failed frame validation and
// was deleted, so callers start fresh instead of resuming damaged state.
var ErrCorrupt = errors.New("snapshot: checkpoint file corrupt (deleted; start fresh)")

// WriteFile persists the checkpoint at path through the store entry
// framing: the encoded archive is wrapped in the CRC32 store frame,
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
// (nil, os.ErrNotExist). A file that fails either frame — the store
// CRC wrapper or the archive's own validation — is deleted and reported
// as ErrCorrupt: torn checkpoints are recomputed from scratch, exactly
// like torn store entries.
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
