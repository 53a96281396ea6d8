package service

// Metrics-reconciliation tests: after an arbitrary interleaving of
// submit / cancel / timeout / reject / re-arm, every /metrics total must
// equal the count of lifecycle transitions that actually happened, and
// the gauges must equal the job table's current state. The counters are
// transition counts, not current states — a record canceled and later
// re-armed to done legitimately contributes to both totals — so the
// tests track expected transitions as they drive the daemon and then
// demand exact equality, not inequalities.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spp1000/internal/experiments"
)

// expect accumulates the transition counts the driving test knows must
// have happened, for exact comparison against /metrics.
type expect struct {
	submitted, deduped, rejected    int
	accepted                        int // 202s: submissions that (re)enqueued a run
	done, failed, canceled, timeout int
}

func (e expect) check(t *testing.T, m map[string]float64) {
	t.Helper()
	for name, want := range map[string]int{
		"jobs_submitted_total":    e.submitted,
		"jobs_deduplicated_total": e.deduped,
		"jobs_rejected_total":     e.rejected,
		"jobs_done_total":         e.done,
		"jobs_failed_total":       e.failed,
		"jobs_canceled_total":     e.canceled,
		"jobs_timeout_total":      e.timeout,
		"jobs_queued":             0,
		"jobs_running":            0,
	} {
		if got := m[name]; int(got) != want {
			t.Errorf("sppd_%s = %v, want %d", name, got, want)
		}
	}
	// Every submission is accounted for exactly once: answered by an
	// existing job, refused, or accepted onto the queue.
	if e.submitted != e.deduped+e.rejected+e.accepted {
		t.Errorf("submissions leak: %d submitted != %d deduped + %d rejected + %d accepted",
			e.submitted, e.deduped, e.rejected, e.accepted)
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) (JobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

func TestMetricsReconcileAfterInterleaving(t *testing.T) {
	release1 := make(chan struct{})
	run := func(ctx context.Context, spec experiments.Spec) (string, error) {
		switch spec.Options.Seed {
		case 1:
			<-release1
			return "r1", nil
		case 4:
			return "", fmt.Errorf("boom")
		case 5:
			<-ctx.Done()
			return "", ctx.Err()
		default:
			return "ok", nil
		}
	}
	_, ts := newTestServer(t, Config{QueueDepth: 1, Workers: 1, Run: run})
	t.Cleanup(func() {
		select {
		case <-release1:
		default:
			close(release1)
		}
	})

	var e expect
	sub := func(body string, wantCode int) JobView {
		t.Helper()
		v, code := submit(t, ts, body)
		e.submitted++
		switch code {
		case http.StatusAccepted:
			e.accepted++
		case http.StatusOK:
			e.deduped++
		case http.StatusServiceUnavailable:
			e.rejected++
		default:
			t.Fatalf("submit %s: unexpected code %d", body, code)
		}
		if code != wantCode {
			t.Fatalf("submit %s: code %d, want %d", body, code, wantCode)
		}
		return v
	}

	// Occupy the single worker: seed 1 runs until released.
	blocker := sub(seedBody(1), http.StatusAccepted)
	waitStatus(t, ts, blocker.ID, StatusRunning)

	// Fill the queue's one slot, then withdraw the occupant. The cancel
	// tallies canceled and settles the queued gauge, but the corpse still
	// holds the channel slot until the worker sweeps it.
	victim := sub(seedBody(2), http.StatusAccepted)
	if _, code := cancelJob(t, ts, victim.ID); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	e.canceled++
	if m := metricsMap(t, ts); m["jobs_queued"] != 0 {
		t.Fatalf("jobs_queued = %v after cancel of queued job, want 0", m["jobs_queued"])
	}

	// Re-arming the canceled record while the slot is still held must
	// land it back in canceled with the books balanced (the re-arm
	// accounting bug this PR fixes): one more canceled, one rejected.
	sub(seedBody(2), http.StatusServiceUnavailable)
	e.canceled++
	if v, err := tsJob(ts, victim.ID); err != nil || Status(v.Status) != StatusCanceled || v.FinishedAt == "" {
		t.Fatalf("re-armed-into-full-queue job = %+v, %v; want canceled with FinishedAt", v, err)
	}

	// A fresh spec bounces off the full queue too.
	sub(seedBody(3), http.StatusServiceUnavailable)

	// Unblock the worker; the blocker completes.
	close(release1)
	waitStatus(t, ts, blocker.ID, StatusDone)
	e.done++

	// The worker sweeps the corpse at its own pace; poll-submit the
	// failing spec until the queue has room, counting every bounce.
	var failer JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, code := submit(t, ts, seedBody(4))
		e.submitted++
		if code == http.StatusAccepted {
			e.accepted++
			failer = v
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("poll submit: %d", code)
		}
		e.rejected++
		if time.Now().After(deadline) {
			t.Fatal("queue never drained the canceled corpse")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitStatus(t, ts, failer.ID, StatusFailed)
	e.failed++

	// A job whose run outlives its per-request deadline.
	slow := sub(`{"experiments":["tab1"],"options":{"seed":5},"timeout":"20ms"}`, http.StatusAccepted)
	waitStatus(t, ts, slow.ID, StatusTimeout)
	e.timeout++

	// Resubmitting the finished blocker dedups — no new transition.
	if v := sub(seedBody(1), http.StatusOK); !v.Cached {
		t.Fatal("dedup of done job should report cached")
	}

	// The canceled victim re-arms into the now-empty queue and finishes.
	sub(seedBody(2), http.StatusAccepted)
	waitStatus(t, ts, victim.ID, StatusDone)
	e.done++

	e.check(t, metricsMap(t, ts))

	// Reconcile against the job table: everything is terminal and
	// finish-stamped, and current statuses match the script.
	byStatus := map[string]int{}
	for _, v := range tsJobs(t, ts) {
		if !Status(v.Status).Terminal() || v.FinishedAt == "" {
			t.Errorf("job %s left %s (finished %q)", v.ID, v.Status, v.FinishedAt)
		}
		byStatus[v.Status]++
	}
	want := map[string]int{"done": 2, "failed": 1, "timeout": 1}
	for st, n := range want {
		if byStatus[st] != n {
			t.Errorf("job table has %d %s, want %d (table: %v)", byStatus[st], st, n, byStatus)
		}
	}
	if len(tsJobs(t, ts)) != 4 {
		t.Errorf("job table has %d records, want 4", len(tsJobs(t, ts)))
	}
}

// TestMetricsReconcileConcurrent hammers the daemon from many
// goroutines — duplicate submissions of completing specs racing
// cancellations of blocking ones — then drains and demands the totals
// balance exactly. Run under -race this also exercises every counter
// path for data races.
func TestMetricsReconcileConcurrent(t *testing.T) {
	const (
		doneKeys   = 12 // specs whose runs complete normally
		cancelKeys = 6  // specs whose runs block until canceled
		dupes      = 8  // goroutines submitting every done-spec
	)
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{QueueDepth: 256, Workers: 4,
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			runs.Add(1)
			if spec.Options.Seed >= 1000 {
				<-ctx.Done()
				return "", ctx.Err()
			}
			return "ok", nil
		}})

	var wg sync.WaitGroup
	for g := 0; g < dupes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < doneKeys; i++ {
				// Each goroutine walks the keys at a different offset so
				// first-submitter and dedup interleave differently.
				seed := (g+i)%doneKeys + 1
				if _, code := submit(t, ts, seedBody(seed)); code != http.StatusAccepted && code != http.StatusOK {
					t.Errorf("submit seed %d: %d", seed, code)
				}
			}
		}(g)
	}
	for l := 0; l < cancelKeys; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			v, code := submit(t, ts, seedBody(1000+l))
			if code != http.StatusAccepted {
				t.Errorf("submit blocking seed %d: %d", 1000+l, code)
				return
			}
			// Cancel whether it is still queued or already running; the
			// run only ends via its context, so exactly one canceled
			// transition happens either way.
			if _, code := cancelJob(t, ts, v.ID); code != http.StatusAccepted {
				t.Errorf("cancel %s: %d", v.ID, code)
			}
		}(l)
	}
	wg.Wait()

	// Drain: wait until every job is terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := 0
		for _, v := range tsJobs(t, ts) {
			if !Status(v.Status).Terminal() {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still live after drain wait", live)
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := metricsMap(t, ts)
	e := expect{
		submitted: dupes*doneKeys + cancelKeys,
		deduped:   (dupes - 1) * doneKeys, // all but the first submit of each done-spec
		accepted:  doneKeys + cancelKeys,
		done:      doneKeys,
		canceled:  cancelKeys,
	}
	e.check(t, m)
	// Executions reconcile too: the daemon recorded a miss for exactly
	// each run the stub saw (canceled-while-queued jobs never ran).
	if int64(m["cache_misses_total"]) != runs.Load() {
		t.Errorf("cache_misses_total = %v, runs = %d", m["cache_misses_total"], runs.Load())
	}
	if m["jobs_done_cached_total"] != 0 {
		t.Errorf("jobs_done_cached_total = %v, want 0 (dedup happens at the job table)", m["jobs_done_cached_total"])
	}
	for _, v := range tsJobs(t, ts) {
		if v.FinishedAt == "" {
			t.Errorf("terminal job %s missing FinishedAt", v.ID)
		}
	}
}

// tsJob fetches one job view over the API.
func tsJob(ts *httptest.Server, id string) (JobView, error) {
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobView{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var v JobView
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// tsJobs fetches the full job table over the API.
func tsJobs(t *testing.T, ts *httptest.Server) []JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return views
}
