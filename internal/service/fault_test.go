package service

// The fault-matrix suite: every test here injects a failure mode —
// expired deadlines, failing or stalled runs, torn durable writes, a
// daemon killed and restarted — and proves the service degrades
// gracefully and its accounting stays exact. Hooks come from
// internal/faultinject; tests that arm them must not run in parallel
// (Arm panics on overlap, making a violation loud).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/load"
	"spp1000/internal/store"
)

// metricsMap fetches /metrics via the load harness's shared scraper
// and parses every `sppd_name value` line into a map with the prefix
// stripped (values as float64; counters compare exactly as they are
// integral).
func metricsMap(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	m, err := load.Scrape(nil, ts.URL, load.SppdPrefix)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seedBody builds a submit body whose content address is pinned by the
// seed — the fault tests key stub-Run behavior on it.
func seedBody(seed int) string {
	return fmt.Sprintf(`{"experiments":["tab1"],"options":{"seed":%d}}`, seed)
}

func TestJobTimeoutReachesTimeoutStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{
		JobTimeout: 20 * time.Millisecond,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			<-ctx.Done() // a real run stops dispatching sweep points here
			return "", ctx.Err()
		},
	})
	v, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusTimeout)
	if done.FinishedAt == "" || !strings.Contains(done.Error, "deadline exceeded") {
		t.Fatalf("timeout view = %+v", done)
	}
	m := metricsMap(t, ts)
	if m["jobs_timeout_total"] != 1 || m["jobs_canceled_total"] != 0 || m["jobs_failed_total"] != 0 {
		t.Fatalf("metrics = timeout %v canceled %v failed %v, want 1/0/0",
			m["jobs_timeout_total"], m["jobs_canceled_total"], m["jobs_failed_total"])
	}
}

// TestPerRequestTimeoutOverride: the submission's own "timeout" beats
// the daemon default, and a timed-out job re-arms on resubmission.
func TestPerRequestTimeoutOverride(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		// Daemon default is generous; the request overrides it down.
		JobTimeout: time.Hour,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done()
				return "", ctx.Err()
			}
			return "second life", nil
		},
	})
	body := `{"experiments":["fig2"],"quick":true,"timeout":"20ms"}`
	v, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, v.ID, StatusTimeout)

	// Resubmission re-arms the timed-out record, like failed/canceled.
	again, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted || again.ID != v.ID {
		t.Fatalf("resubmit after timeout: code %d id %s", code, again.ID)
	}
	waitStatus(t, ts, v.ID, StatusDone)
	res, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK || res != "second life" {
		t.Fatalf("result after re-arm = %d %q", resp.StatusCode, res)
	}
}

// TestFaultInjectedFailingRun: an injected run error lands the job in
// failed (not cached), and once the fault clears a resubmission runs
// for real.
func TestFaultInjectedFailingRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		return "healthy", nil
	}})
	disarm := faultinject.Arm(faultinject.RunStart, func(...string) error {
		return errors.New("injected run failure")
	})
	t.Cleanup(disarm)

	v, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	failed := waitStatus(t, ts, v.ID, StatusFailed)
	if !strings.Contains(failed.Error, "injected run failure") || failed.FinishedAt == "" {
		t.Fatalf("failed view = %+v", failed)
	}

	disarm()
	again, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted || again.ID != v.ID {
		t.Fatalf("resubmit after injected failure: %d %s", code, again.ID)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if done.Cached {
		t.Fatal("failed run must not be cached")
	}
	m := metricsMap(t, ts)
	if m["jobs_failed_total"] != 1 || m["jobs_done_total"] != 1 {
		t.Fatalf("metrics failed %v done %v, want 1/1", m["jobs_failed_total"], m["jobs_done_total"])
	}
}

// TestFaultInjectedSlowRunsFillQueue: with runs stalled by the hook,
// the bounded queue fills and overflow submissions get 503 — while the
// stalled in-flight jobs still complete once the fault clears.
func TestFaultInjectedSlowRunsFillQueue(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 1, Workers: 1,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			return "completed despite overload", nil
		}})

	release := make(chan struct{})
	disarm := faultinject.Arm(faultinject.RunStart, func(...string) error {
		<-release // injected slow run
		return nil
	})
	t.Cleanup(disarm)
	// Registered after newTestServer so it runs before the server's
	// drain cleanup (LIFO): a test failure must not leave the worker
	// parked in the hook while Shutdown waits on it.
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	running, _ := submit(t, ts, seedBody(1))
	waitStatus(t, ts, running.ID, StatusRunning)
	queued, code := submit(t, ts, seedBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", code)
	}
	if _, code := submit(t, ts, seedBody(3)); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", code)
	}

	close(release)
	for _, id := range []string{running.ID, queued.ID} {
		done := waitStatus(t, ts, id, StatusDone)
		if done.Cached {
			t.Fatalf("job %s should have run fresh", id)
		}
	}
	m := metricsMap(t, ts)
	if m["jobs_rejected_total"] != 1 || m["jobs_done_total"] != 2 || m["jobs_queued"] != 0 || m["jobs_running"] != 0 {
		t.Fatalf("metrics after overload = rejected %v done %v queued %v running %v",
			m["jobs_rejected_total"], m["jobs_done_total"], m["jobs_queued"], m["jobs_running"])
	}
}

// TestKillAndRestartServesFromStore is the durability acceptance test:
// a fresh daemon pointed at an existing store directory answers a prior
// submission as done+cached with the byte-identical result and an empty
// PMU snapshot — no simulation ran in its lifetime.
func TestKillAndRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiments":["tab1"],"quick":true}`

	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st1}) // default Run: the real engine
	ts1 := httptest.NewServer(s1.Handler())
	v1, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("first-life submit: %d", code)
	}
	waitStatus(t, ts1, v1.ID, StatusDone)
	res1, resp := getResult(t, ts1, v1.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first-life result: %d", resp.StatusCode)
	}
	// Kill the first daemon.
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh server, empty job table, same directory.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2, Run: func(context.Context, experiments.Spec) (string, error) {
		return "", errors.New("restarted daemon must not re-simulate a stored result")
	}})
	v2, code := submit(t, ts2, body)
	if code != http.StatusOK {
		t.Fatalf("second-life submit: code %d, want 200 (answered from store)", code)
	}
	if v2.ID != v1.ID || Status(v2.Status) != StatusDone || !v2.Cached {
		t.Fatalf("second-life view = %+v, want same id, done, cached", v2)
	}
	if len(v2.Counters) != 0 {
		t.Fatalf("no simulation ran, but PMU snapshot is %v", v2.Counters)
	}
	res2, resp := getResult(t, ts2, v2.ID)
	if resp.StatusCode != http.StatusOK || res2 != res1 {
		t.Fatalf("restarted result differs: %d, %d bytes vs %d bytes", resp.StatusCode, len(res2), len(res1))
	}
	if resp.Header.Get("X-Sppd-Cached") != "true" {
		t.Fatalf("X-Sppd-Cached = %q", resp.Header.Get("X-Sppd-Cached"))
	}
	m := metricsMap(t, ts2)
	if m["store_hits_total"] != 1 || m["jobs_done_cached_total"] != 1 || m["jobs_done_total"] != 1 {
		t.Fatalf("second-life metrics = store %v done_cached %v done %v, want 1/1/1",
			m["store_hits_total"], m["jobs_done_cached_total"], m["jobs_done_total"])
	}
	if hs := st2.Stats(); hs.Hits != 1 {
		t.Fatalf("store stats = %+v, want 1 hit", hs)
	}
}

// TestTornStoreWriteRecomputedNotServed: a write torn between payload
// and rename leaves a corrupt durable entry; the restarted daemon must
// detect it, recompute, and repair the store — never serve the damage.
func TestTornStoreWriteRecomputedNotServed(t *testing.T) {
	dir := t.TempDir()
	body := seedBody(7)
	var runs atomic.Int64
	runFn := func(ctx context.Context, spec experiments.Spec) (string, error) {
		runs.Add(1)
		return "the one true result", nil
	}

	// The hook sees the temp file just before the atomic rename: chop
	// its tail off, as a crash mid-write would.
	tear := faultinject.Arm(faultinject.StoreWrite, func(args ...string) error {
		return os.Truncate(args[0], 10)
	})
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st1, Run: runFn})
	ts1 := httptest.NewServer(s1.Handler())
	v1, _ := submit(t, ts1, body)
	waitStatus(t, ts1, v1.ID, StatusDone) // job succeeds; only its durability is torn
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Shutdown(ctx)
	tear()

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2, Run: runFn})
	v2, code := submit(t, ts2, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit over torn store: code %d, want 202 (recompute, not serve)", code)
	}
	done := waitStatus(t, ts2, v2.ID, StatusDone)
	if done.Cached {
		t.Fatal("torn entry was served as a stored result")
	}
	res, resp := getResult(t, ts2, v2.ID)
	if resp.StatusCode != http.StatusOK || res != "the one true result" {
		t.Fatalf("result = %d %q", resp.StatusCode, res)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2 (original + recompute)", runs.Load())
	}
	if ss := st2.Stats(); ss.Corrupt != 1 || ss.Puts != 1 {
		t.Fatalf("store stats = %+v, want Corrupt 1 and the repair Put 1", ss)
	}
	// The repair is durable: a third life serves it from the store.
	st3, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, Config{Store: st3, Run: runFn})
	v3, code := submit(t, ts3, body)
	if code != http.StatusOK || !v3.Cached {
		t.Fatalf("third-life submit = %d cached %v, want 200 cached", code, v3.Cached)
	}
	if runs.Load() != 2 {
		t.Fatalf("third life re-ran (runs=%d)", runs.Load())
	}
}

// TestFaultInjectedStoreFailuresDegrade: a failing durable store costs
// durability or a recompute, never a job. A failed read of a stored key
// recomputes it; a failed write still finishes the job with the right
// result, and only a later daemon life pays for the lost entry. Each
// failure is one sppd_store_errors_total.
func TestFaultInjectedStoreFailuresDegrade(t *testing.T) {
	body := seedBody(11)
	key, err := SubmitKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	runFn := func(ctx context.Context, spec experiments.Spec) (string, error) {
		runs.Add(1)
		return "the one true result", nil
	}

	t.Run("read", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, "the one true result"); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Store: st, Run: runFn})
		disarm := faultinject.Arm(faultinject.StoreRead, func(...string) error {
			return errors.New("injected read failure")
		})
		t.Cleanup(disarm)

		runs.Store(0)
		v, code := submit(t, ts, body)
		if code != http.StatusAccepted || v.Cached {
			t.Fatalf("submit over failing read = %d cached %v, want 202 uncached", code, v.Cached)
		}
		done := waitStatus(t, ts, v.ID, StatusDone)
		if done.Cached || runs.Load() != 1 {
			t.Fatalf("cached %v runs %d, want a fresh recompute", done.Cached, runs.Load())
		}
		m := metricsMap(t, ts)
		if m["store_errors_total"] != 1 || m["store_hits_total"] != 0 {
			t.Fatalf("store errors %v hits %v, want 1/0", m["store_errors_total"], m["store_hits_total"])
		}
	})

	t.Run("write", func(t *testing.T) {
		dir := t.TempDir()
		st1, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		disarm := faultinject.Arm(faultinject.StoreWrite, func(...string) error {
			return errors.New("injected write failure")
		})
		t.Cleanup(disarm)
		s1 := New(Config{Store: st1, Run: runFn})
		ts1 := httptest.NewServer(s1.Handler())
		runs.Store(0)
		v1, _ := submit(t, ts1, body)
		waitStatus(t, ts1, v1.ID, StatusDone)
		res, resp := getResult(t, ts1, v1.ID)
		if resp.StatusCode != http.StatusOK || res != "the one true result" {
			t.Fatalf("result over failing write = %d %q", resp.StatusCode, res)
		}
		if m := metricsMap(t, ts1); m["store_errors_total"] != 1 {
			t.Fatalf("store_errors_total = %v, want 1", m["store_errors_total"])
		}
		ts1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s1.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		disarm()

		// The entry never reached disk, so the next life recomputes.
		st2, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ts2 := newTestServer(t, Config{Store: st2, Run: runFn})
		v2, code := submit(t, ts2, body)
		if code != http.StatusAccepted || v2.Cached {
			t.Fatalf("second-life submit = %d cached %v, want 202 uncached", code, v2.Cached)
		}
		waitStatus(t, ts2, v2.ID, StatusDone)
		if runs.Load() != 2 {
			t.Fatalf("runs = %d, want 2 (first life + recompute)", runs.Load())
		}
	})
}
