package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/store"
)

// newTestServer wires a Server with the given RunFunc to a live
// httptest HTTP server, and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad submit response %q: %v", data, err)
		}
	}
	return v, resp.StatusCode
}

// waitStatus polls the status endpoint until the job reaches want.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if Status(v.Status) == want {
			return v
		}
		if Status(v.Status).Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.Status, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data), resp
}

// TestSubmitTwiceServesFromCache is the first acceptance property:
// resubmitting an identical configuration returns the finished result
// without running the simulation again.
func TestSubmitTwiceServesFromCache(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		runs.Add(1)
		return "result:" + spec.Experiments[0], nil
	}})

	body := `{"experiments":["fig2"],"quick":true}`
	first, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d, want 202", code)
	}
	waitStatus(t, ts, first.ID, StatusDone)

	second, code := submit(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second submit: code %d, want 200 (already done)", code)
	}
	if second.ID != first.ID {
		t.Fatalf("identical specs got different ids: %s vs %s", first.ID, second.ID)
	}
	if Status(second.Status) != StatusDone || !second.Cached {
		t.Fatalf("second submit = %+v, want done+cached", second)
	}
	res, resp := getResult(t, ts, second.ID)
	if resp.StatusCode != http.StatusOK || res != "result:fig2" {
		t.Fatalf("result = %d %q", resp.StatusCode, res)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("simulation ran %d times, want 1", n)
	}
}

// TestPrunedJobServedFromStore: the job table is the only in-memory
// result holder. Once a finished job is pruned from it, a resubmission
// reads the durable store when there is one, and recomputes otherwise.
func TestPrunedJobServedFromStore(t *testing.T) {
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("store=%v", durable), func(t *testing.T) {
			var runs atomic.Int64
			cfg := Config{MaxJobs: 1, Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
				runs.Add(1)
				return fmt.Sprintf("seed %d", spec.Options.Seed), nil
			}}
			if durable {
				st, err := store.Open(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
			_, ts := newTestServer(t, cfg)
			a, _ := submit(t, ts, seedBody(1))
			waitStatus(t, ts, a.ID, StatusDone)
			b, _ := submit(t, ts, seedBody(2)) // prunes a
			waitStatus(t, ts, b.ID, StatusDone)
			if _, err := tsJob(ts, a.ID); err == nil {
				t.Fatal("job a was not pruned from a one-entry table")
			}

			again, code := submit(t, ts, seedBody(1))
			wantCode, wantRuns, wantHits := http.StatusAccepted, int64(3), 0.0
			if durable {
				wantCode, wantRuns, wantHits = http.StatusOK, 2, 1
			}
			if code != wantCode || again.Cached != durable {
				t.Fatalf("resubmit of pruned job = %d cached %v, want %d cached %v", code, again.Cached, wantCode, durable)
			}
			waitStatus(t, ts, a.ID, StatusDone)
			if res, _ := getResult(t, ts, a.ID); res != "seed 1" {
				t.Fatalf("result = %q", res)
			}
			if runs.Load() != wantRuns {
				t.Fatalf("runs = %d, want %d", runs.Load(), wantRuns)
			}
			if m := metricsMap(t, ts); m["store_hits_total"] != wantHits {
				t.Fatalf("store_hits_total = %v, want %v", m["store_hits_total"], wantHits)
			}
		})
	}
}

// TestConcurrentIdenticalSubmissionsCoalesce is the second acceptance
// property: identical submissions racing while the job is in flight all
// land on the same job and exactly one run happens.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		runs.Add(1)
		close(started)
		<-release
		return "shared result", nil
	}})

	body := `{"experiments":["fig3"],"quick":true}`
	first, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	<-started // the run is in flight; now race duplicates against it

	const dups = 12
	ids := make(chan string, dups)
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, code := submit(t, ts, body)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("duplicate submit: code %d", code)
			}
			ids <- v.ID
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		if id != first.ID {
			t.Fatalf("duplicate got job %s, want %s", id, first.ID)
		}
	}

	close(release)
	waitStatus(t, ts, first.ID, StatusDone)
	res, resp := getResult(t, ts, first.ID)
	if resp.StatusCode != http.StatusOK || res != "shared result" {
		t.Fatalf("result = %d %q", resp.StatusCode, res)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d concurrent identical submissions caused %d runs, want 1", dups+1, n)
	}
}

func TestDistinctSpecsRunSeparately(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		runs.Add(1)
		return spec.Experiments[0], nil
	}})
	a, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	b, _ := submit(t, ts, `{"experiments":["fig2"]}`) // paper scale: different options
	if a.ID == b.ID {
		t.Fatal("different options must yield different job ids")
	}
	waitStatus(t, ts, a.ID, StatusDone)
	waitStatus(t, ts, b.ID, StatusDone)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", runs.Load())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(context.Context, experiments.Spec) (string, error) {
		return "", nil
	}})
	for _, body := range []string{
		`{"experiments":[]}`,
		`{"experiments":["nope"]}`,
		`{"experiments":["fig2"],"bogus":1}`,
		`not json`,
		// quick and options are mutually exclusive: silently picking one
		// would hand back a different content address than asked for.
		`{"experiments":["fig2"],"quick":true,"options":{"seed":3}}`,
		// timeouts must be positive Go durations.
		`{"experiments":["fig2"],"timeout":"banana"}`,
		`{"experiments":["fig2"],"timeout":"-5s"}`,
		`{"experiments":["fig2"],"timeout":"0s"}`,
	} {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit(%q): code %d, want 400", body, code)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// An N-body size below one body per microblock used to reach
// CountWorkload and panic the daemon with a division by zero. It is
// a bad request now, and the daemon goes on serving.
func TestTinyNBodySizeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"experiments":["fig8"],"options":{"nBodySizes":[32]}}`,
		`{"experiments":["fig8"],"options":{"nBodySizes":[0]}}`,
	} {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit(%q): code %d, want 400", body, code)
		}
	}
	v, code := submit(t, ts, `{"experiments":["fig8"],"options":{"nBodySizes":[64],"appSteps":1,"seed":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("smallest accepted size: code %d, want 202", code)
	}
	waitStatus(t, ts, v.ID, StatusDone)
}

func TestAliasExpansion(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(context.Context, experiments.Spec) (string, error) {
		return "", nil
	}})
	v, code := submit(t, ts, `{"experiments":["all"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("code %d", code)
	}
	if len(v.Experiments) != len(experiments.Names) {
		t.Fatalf("alias all expanded to %v", v.Experiments)
	}
}

func TestQueueBoundRejectsWith503(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{QueueDepth: 1, Workers: 1,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			<-release
			return "", nil
		}})
	defer close(release)

	a, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	waitStatus(t, ts, a.ID, StatusRunning) // occupies the one worker
	if _, code := submit(t, ts, `{"experiments":["fig3"],"quick":true}`); code != http.StatusAccepted {
		t.Fatalf("second submit should queue, got %d", code)
	}
	if _, code := submit(t, ts, `{"experiments":["fig4"],"quick":true}`); code != http.StatusServiceUnavailable {
		t.Fatalf("third submit should be rejected 503, got %d", code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			runs.Add(1)
			<-release
			return "", nil
		}})

	blocker, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	waitStatus(t, ts, blocker.ID, StatusRunning)
	queued, _ := submit(t, ts, `{"experiments":["fig3"],"quick":true}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: code %d, want 202", resp.StatusCode)
	}
	waitStatus(t, ts, queued.ID, StatusCanceled)

	close(release)
	waitStatus(t, ts, blocker.ID, StatusDone)
	if runs.Load() != 1 {
		t.Fatalf("canceled queued job still ran (runs=%d)", runs.Load())
	}

	// A canceled job may be resubmitted and then runs for real.
	again, code := submit(t, ts, `{"experiments":["fig3"],"quick":true}`)
	if code != http.StatusAccepted || again.ID != queued.ID {
		t.Fatalf("resubmit after cancel: code %d id %s", code, again.ID)
	}
	waitStatus(t, ts, again.ID, StatusDone)
	if runs.Load() != 2 {
		t.Fatalf("resubmitted job did not run (runs=%d)", runs.Load())
	}
}

func TestCancelRunningJobStopsIt(t *testing.T) {
	started := make(chan struct{})
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		close(started)
		<-ctx.Done() // a real run would stop dispatching sweep points
		return "", ctx.Err()
	}})
	v, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, ts, v.ID, StatusCanceled)
}

func TestShutdownDrainsRunningJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s := New(Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		close(started)
		<-release
		return "drained", nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining: new submissions are refused...
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, code := submit(t, ts, `{"experiments":["fig3"],"quick":true}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	// ...but the running job completes.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res, _, err := s.Result(v.ID)
	if err != nil || res != "drained" {
		t.Fatalf("after drain: %q, %v", res, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(context.Context, experiments.Spec) (string, error) {
		return "x", nil
	}})
	v, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	waitStatus(t, ts, v.ID, StatusDone)
	submit(t, ts, `{"experiments":["fig2"],"quick":true}`) // a dedup hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"sppd_jobs_submitted_total 2",
		"sppd_jobs_deduplicated_total 1",
		"sppd_jobs_done_total 1",
		"sppd_cache_misses_total 1",
		"sppd_sim_cycles_per_wall_second ",
		"sppd_uptime_seconds ",
		"sppd_queue_capacity ",
		"sppd_busy_seconds_total ",
		"sppd_store_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestRealEngineEndToEnd exercises the default RunFunc against the real
// experiment engine on the cheapest artifact, and checks the rendered
// result matches what the engine produces directly.
func TestRealEngineEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{
		"experiments": []string{"tab1"},
		"quick":       true,
	})
	v, code := submit(t, ts, buf.String())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, v.ID, StatusDone)
	res, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	want, err := experiments.Run("tab1", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res != fmt.Sprintf("=== tab1 ===\n%s\n", want) {
		t.Fatalf("daemon result differs from direct engine output:\n%q", res)
	}
}

// TestJobCountersAndMetrics checks the PMU surfaces of the daemon: a
// fresh job's view carries the flattened counter snapshot of its
// simulations, and /metrics exports the daemon-lifetime aggregate as
// sppd_sim_counter_* lines.
func TestJobCountersAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v, code := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if len(done.Counters) == 0 {
		t.Fatal("done job has no counters")
	}
	if done.Counters["threads.forks"] == 0 {
		t.Errorf("fig2 job counters missing fork events: %v", done.Counters)
	}

	// A dedup hit re-serves the same job record, counters included.
	again, _ := submit(t, ts, `{"experiments":["fig2"],"quick":true}`)
	if !again.Cached || again.Counters["threads.forks"] != done.Counters["threads.forks"] {
		t.Errorf("dedup view lost counters: cached=%v %v", again.Cached, again.Counters)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	// fig2's fork-join teams run empty bodies: only threads.* counters
	// record events (zero deltas are never published).
	for _, want := range []string{
		"sppd_sim_counter_threads_forks ",
		"sppd_sim_counter_threads_spawn_local ",
		"sppd_sim_counter_threads_team_size_count ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
