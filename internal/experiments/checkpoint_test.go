package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spp1000/internal/parsim"
	"spp1000/internal/snapshot"
)

// TestCheckpointKillAtEveryBoundary is the resume-exactness gate: a
// run killed at ANY checkpoint boundary and resumed must produce
// byte-identical outputs versus an uninterrupted run — at -simpar 1, 2,
// and 4, under -race (`make checkpoint` / `make faultmatrix`). The
// final-checkpoint byte equality is the strongest form: spec key, suite
// and every rendered output live inside the encoding, so one
// bytes.Equal covers the whole record.
func TestCheckpointKillAtEveryBoundary(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "tab1", "scalepar"} // scalepar exercises the PDES engine

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("simpar%d", workers), func(t *testing.T) {
			parsim.SetWorkers(workers)
			defer parsim.SetWorkers(0)

			// Uninterrupted reference, recording the checkpoint bytes at
			// every boundary — these are the states a kill could leave.
			var boundaries [][]byte
			refOuts, refFinal, err := RunCheckpointed(context.Background(), names, o, nil,
				func(c *snapshot.Checkpoint) error {
					boundaries = append(boundaries, c.Encode())
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(boundaries) != len(names) {
				t.Fatalf("%d boundary checkpoints for %d experiments", len(boundaries), len(names))
			}
			refBytes := refFinal.Encode()

			for b, raw := range boundaries {
				prior, err := snapshot.DecodeCheckpoint(raw)
				if err != nil {
					t.Fatalf("boundary %d: %v", b, err)
				}
				outs, final, err := RunCheckpointed(context.Background(), names, o, prior, nil)
				if err != nil {
					t.Fatalf("resume from boundary %d: %v", b, err)
				}
				if got, want := strings.Join(outs, "\x00"), strings.Join(refOuts, "\x00"); got != want {
					t.Fatalf("boundary %d: resumed outputs diverge from the uninterrupted run", b)
				}
				if !bytes.Equal(final.Encode(), refBytes) {
					t.Fatalf("boundary %d: resumed final checkpoint is not byte-identical to the uninterrupted run's", b)
				}
			}
		})
	}
}

// A checkpoint for a different spec (other names or options) must be
// refused, never silently spliced into the wrong run.
func TestCheckpointSpecKeyMismatch(t *testing.T) {
	o := Quick()
	_, cp, err := RunCheckpointed(context.Background(), []string{"fig2"}, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCheckpointed(context.Background(), []string{"fig2", "fig3"}, o, cp, nil); err == nil {
		t.Fatal("checkpoint for another suite accepted")
	}
	other := Quick()
	other.AppSteps++
	if _, _, err := RunCheckpointed(context.Background(), []string{"fig2"}, other, cp, nil); err == nil {
		t.Fatal("checkpoint for other options accepted")
	}
}

// A canceled context surfaces the completed-prefix checkpoint alongside
// the error, with the in-flight experiment discarded.
func TestCheckpointCancelKeepsPrefix(t *testing.T) {
	o := Quick()
	names := []string{"fig2", "fig3"}
	ctx, cancel := context.WithCancel(context.Background())
	_, cp, err := RunCheckpointed(ctx, names, o, nil,
		func(c *snapshot.Checkpoint) error {
			cancel() // killed right after the first boundary
			return nil
		})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if len(cp.Done) != 1 || cp.Done[0].Name != "fig2" {
		t.Fatalf("prefix %v, want the completed fig2 only", cp.Done)
	}
	// The prefix resumes to exactly the uninterrupted result.
	refOuts, _, err := RunCheckpointed(context.Background(), names, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := RunCheckpointed(context.Background(), names, o, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(outs, "\x00") != strings.Join(refOuts, "\x00") {
		t.Fatal("resumed outputs diverge from the uninterrupted run")
	}
}

// A failing save aborts the run with the checkpoint it could not persist.
func TestCheckpointSaveErrorPropagates(t *testing.T) {
	boom := errors.New("disk full")
	_, _, err := RunCheckpointed(context.Background(), []string{"fig2"}, Quick(), nil,
		func(c *snapshot.Checkpoint) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the save error", err)
	}
}
