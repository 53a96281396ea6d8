package service

// The checkpoint lifecycle slice of the fault-matrix suite: a deadline
// that fires mid-suite must land the job in "checkpointed" (work kept,
// waiters unblocked), a resubmission must resume from the checkpoint
// instead of recomputing, and a restarted daemon must find the
// checkpoint in its durable store. docs/SERVICE.md documents the
// lifecycle; sppd_jobs_checkpointed_total is asserted here, which also
// keeps it on simlint's ledger reconcile surface.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/snapshot"
	"spp1000/internal/store"
)

// TestDeadlineCheckpointsThenResumes: first run saves a checkpoint and
// then hits its deadline → status "checkpointed", counted in
// sppd_jobs_checkpointed_total; resubmitting the same spec re-arms the
// job, hands the saved checkpoint back to the runner, and finishes.
func TestDeadlineCheckpointsThenResumes(t *testing.T) {
	var calls atomic.Int64
	var resumedFrom atomic.Value // string: the prior bytes the second run saw
	_, ts := newTestServer(t, Config{
		RunCheckpointed: func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
			if calls.Add(1) == 1 {
				if err := save([]byte("prefix-after-fig2")); err != nil {
					return "", nil, err
				}
				<-ctx.Done() // the deadline fires mid-suite
				return "", []byte("prefix-after-fig2"), ctx.Err()
			}
			resumedFrom.Store(string(prior))
			return "resumed result", nil, nil
		},
	})

	body := `{"experiments":["fig2"],"quick":true,"timeout":"20ms"}`
	v, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	cp := waitStatus(t, ts, v.ID, StatusCheckpointed)
	if cp.FinishedAt == "" || !strings.Contains(cp.Error, "checkpointed") {
		t.Fatalf("checkpointed view = %+v", cp)
	}
	m := metricsMap(t, ts)
	if m["jobs_checkpointed_total"] != 1 || m["jobs_timeout_total"] != 0 || m["jobs_failed_total"] != 0 {
		t.Fatalf("metrics = checkpointed %v timeout %v failed %v, want 1/0/0",
			m["jobs_checkpointed_total"], m["jobs_timeout_total"], m["jobs_failed_total"])
	}

	// Resubmission re-arms and resumes (a generous timeout this time).
	again, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted || again.ID != v.ID {
		t.Fatalf("resubmit after checkpoint: code %d id %s", code, again.ID)
	}
	waitStatus(t, ts, v.ID, StatusDone)
	if got, _ := resumedFrom.Load().(string); got != "prefix-after-fig2" {
		t.Fatalf("resumed run saw prior %q, want the saved checkpoint", got)
	}
	res, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK || res != "resumed result" {
		t.Fatalf("result = %d %q", resp.StatusCode, res)
	}
	m = metricsMap(t, ts)
	if m["jobs_checkpointed_total"] != 1 || m["jobs_done_total"] != 1 {
		t.Fatalf("final metrics = checkpointed %v done %v, want 1/1", m["jobs_checkpointed_total"], m["jobs_done_total"])
	}
}

// TestDeadlineWithoutProgressIsTimeout: a checkpointing runner that made
// no progress before the deadline has nothing to keep — the job lands in
// plain "timeout", exactly as under the non-checkpointing runner.
func TestDeadlineWithoutProgressIsTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RunCheckpointed: func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
			<-ctx.Done()
			return "", nil, ctx.Err() // zero experiments completed: no partial
		},
	})
	v, code := submit(t, ts, `{"experiments":["fig2"],"quick":true,"timeout":"20ms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, v.ID, StatusTimeout)
	m := metricsMap(t, ts)
	if m["jobs_timeout_total"] != 1 || m["jobs_checkpointed_total"] != 0 {
		t.Fatalf("metrics = timeout %v checkpointed %v, want 1/0", m["jobs_timeout_total"], m["jobs_checkpointed_total"])
	}
}

// TestRestartResumesFromStoredCheckpoint: the checkpoint write-through
// survives the daemon. A second life pointed at the same store directory
// finds no result for the key — but finds the checkpoint, and resumes
// from it instead of starting over.
func TestRestartResumesFromStoredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiments":["tab1"],"timeout":"20ms"}`

	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{
		Store: st1,
		RunCheckpointed: func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
			if err := save([]byte("durable-prefix")); err != nil {
				return "", nil, err
			}
			<-ctx.Done()
			return "", []byte("durable-prefix"), ctx.Err()
		},
	})
	ts1 := httptest.NewServer(s1.Handler())
	v1, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("first-life submit: %d", code)
	}
	waitStatus(t, ts1, v1.ID, StatusCheckpointed)
	// Kill the first daemon.
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh server, same directory. The job table is empty,
	// so the submission queues a fresh run — which must be handed the
	// stored checkpoint as its prior.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var resumedFrom atomic.Value
	_, ts2 := newTestServer(t, Config{
		Store: st2,
		RunCheckpointed: func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
			resumedFrom.Store(string(prior))
			return "finished in the second life", nil, nil
		},
	})
	v2, code := submit(t, ts2, `{"experiments":["tab1"]}`)
	if code != http.StatusAccepted || v2.ID != v1.ID {
		t.Fatalf("second-life submit: code %d id %s (first life %s)", code, v2.ID, v1.ID)
	}
	waitStatus(t, ts2, v2.ID, StatusDone)
	if got, _ := resumedFrom.Load().(string); got != "durable-prefix" {
		t.Fatalf("second life saw prior %q, want the stored checkpoint", got)
	}
	res, resp := getResult(t, ts2, v2.ID)
	if resp.StatusCode != http.StatusOK || res != "finished in the second life" {
		t.Fatalf("result = %d %q", resp.StatusCode, res)
	}
	// Completion spends the checkpoint: the durable copy is deleted, so
	// it cannot squat store capacity after the result supersedes it.
	if _, ok, err := st2.Get(checkpointKey(v2.ID)); ok || err != nil {
		t.Fatalf("durable checkpoint survived completion: ok=%v err=%v", ok, err)
	}
}

// TestDefaultRunnerCheckpointsRealEngine drives the real checkpointing
// engine (the nil-config default) end to end through the HTTP API: a
// two-experiment suite whose deadline fires after the first boundary
// lands checkpointed, and the resubmission's result is byte-identical to
// an uninterrupted run of the same spec on a second daemon.
func TestDefaultRunnerCheckpointsRealEngine(t *testing.T) {
	// An uninterrupted reference daemon.
	_, ref := newTestServer(t, Config{})
	body := `{"experiments":["fig2","fig3"],"quick":true}`
	rv, _ := submit(t, ref, body)
	waitStatus(t, ref, rv.ID, StatusDone)
	want, resp := getResult(t, ref, rv.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference result: %d", resp.StatusCode)
	}

	// The interrupted daemon: a deadline generous enough for fig2 but not
	// the whole suite is impossible to pin portably, so instead interrupt
	// deterministically — wrap the default runner and cancel via a
	// deadline that fires during fig3 (the save hook signals fig2 done).
	firstBoundary := make(chan struct{})
	var once atomic.Bool
	_, ts := newTestServer(t, Config{
		RunCheckpointed: func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
			wrapped := func(b []byte) error {
				if once.CompareAndSwap(false, true) {
					close(firstBoundary)
					if len(prior) == 0 {
						<-ctx.Done() // hold until the deadline fires: a mid-suite kill
					}
				}
				return save(b)
			}
			return DefaultRunCheckpointed(ctx, spec, prior, wrapped)
		},
	})
	v, code := submit(t, ts, `{"experiments":["fig2","fig3"],"quick":true,"timeout":"150ms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-firstBoundary
	waitStatus(t, ts, v.ID, StatusCheckpointed)

	again, code := submit(t, ts, body)
	if code != http.StatusAccepted || again.ID != v.ID {
		t.Fatalf("resubmit: code %d id %s", code, again.ID)
	}
	waitStatus(t, ts, v.ID, StatusDone)
	got, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed result: %d", resp.StatusCode)
	}
	if got != want {
		t.Fatalf("resumed result differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}

	// A stale checkpoint in the retired v2 format for the same spec is
	// not resumed from: the runner recomputes and returns the fresh run's
	// bytes, not a failed job. Its stale fig2 prefix would show in the
	// result if it were spliced in, as the same prefix in the current
	// format is.
	spec, err := experiments.Spec{Experiments: []string{"fig2", "fig3"}, Options: experiments.Quick()}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v2Checkpoint, "speckey="+spec.Key()+"\n") {
		t.Fatal("v2Checkpoint no longer carries this spec's key; the stale-prior case would pass for the wrong reason")
	}
	out, _, err := DefaultRunCheckpointed(context.Background(), spec, []byte(v2Checkpoint), nil)
	if err != nil || out != want {
		t.Fatalf("v2 prior: err %v, result differs from a fresh run (%d vs %d bytes)", err, len(out), len(want))
	}
	stale := &snapshot.Checkpoint{
		SpecKey: spec.Key(),
		Names:   spec.Experiments,
		Done:    []snapshot.ExperimentResult{{Name: "fig2", Output: "stale fig2 output"}},
	}
	out, _, err = DefaultRunCheckpointed(context.Background(), spec, stale.Encode(), nil)
	if err != nil || !strings.Contains(out, "stale fig2 output") {
		t.Fatalf("current-format prior with the same prefix was not resumed from (err %v)", err)
	}
}

// v2Checkpoint is a frozen checkpoint in the retired spp-snapshot-v2
// format for the quick fig2,fig3 suite, byte for byte as that format
// wrote it: a CRC-framed archive of meta, outputs and counters
// sections. internal/snapshot's strictness test holds the same bytes.
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

// TestFaultInjectedCheckpointStoreFailuresCounted: checkpoint I/O is
// store I/O. With every durable write failing, a run that saves three
// boundaries still finishes, and sppd_store_errors_total counts each
// failed write — the three checkpoints and the result. With reads
// failing, the submit-time result read and the resume-checkpoint read
// each count once.
func TestFaultInjectedCheckpointStoreFailuresCounted(t *testing.T) {
	const boundaries = 3
	runCp := func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
		for i := 0; i < boundaries; i++ {
			if err := save([]byte(fmt.Sprintf("prefix-%d", i))); err != nil {
				return "", nil, err
			}
		}
		return "finished", nil, nil
	}

	t.Run("write", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Store: st, RunCheckpointed: runCp})
		var failed atomic.Int64
		t.Cleanup(faultinject.Arm(faultinject.StoreWrite, func(...string) error {
			failed.Add(1)
			return errors.New("injected write failure")
		}))
		v, _ := submit(t, ts, seedBody(30))
		waitStatus(t, ts, v.ID, StatusDone)
		if res, _ := getResult(t, ts, v.ID); res != "finished" {
			t.Fatalf("result = %q", res)
		}
		m := metricsMap(t, ts)
		if failed.Load() != boundaries+1 || m["store_errors_total"] != float64(failed.Load()) {
			t.Fatalf("store_errors_total = %v, failed writes = %d, want both %d",
				m["store_errors_total"], failed.Load(), boundaries+1)
		}
	})

	t.Run("read", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Store: st, RunCheckpointed: runCp})
		t.Cleanup(faultinject.Arm(faultinject.StoreRead, func(...string) error {
			return errors.New("injected read failure")
		}))
		v, _ := submit(t, ts, seedBody(31))
		waitStatus(t, ts, v.ID, StatusDone)
		if m := metricsMap(t, ts); m["store_errors_total"] != 2 {
			t.Fatalf("store_errors_total = %v, want 2 (result read, checkpoint read)", m["store_errors_total"])
		}
	})
}
