package service

// Backend-identity and peer-fetch tests: the service-side halves of
// the sppgw cluster protocol, exercised directly against one daemon
// (the gateway-side integration lives in internal/gateway's suite).

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/store"
)

// TestBackendIdentitySurfaces pins the two places a clustered daemon
// names itself: the "backend" field of every job view and the
// X-Spp-Backend header on every response. A standalone daemon (no ID)
// must emit neither.
func TestBackendIdentitySurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{ID: "node7", Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		return "ok", nil
	}})

	v, code := submit(t, ts, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if v.Backend != "node7" {
		t.Fatalf("submit view backend = %q, want node7", v.Backend)
	}
	waitStatus(t, ts, v.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "node7" {
		t.Fatalf("X-Spp-Backend = %q, want node7", hdr)
	}
	// The header rides every route, even ones that never touch a job.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "node7" {
		t.Fatalf("healthz X-Spp-Backend = %q, want node7", hdr)
	}

	_, solo := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		return "ok", nil
	}})
	sv, code := submit(t, solo, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("solo submit: %d", code)
	}
	if sv.Backend != "" {
		t.Fatalf("standalone view backend = %q, want empty", sv.Backend)
	}
	resp, err = http.Get(solo.URL + "/v1/jobs/" + sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "" {
		t.Fatalf("standalone X-Spp-Backend = %q, want absent", hdr)
	}
}

// TestPeerFetchHookServesWithoutRunning proves a configured PeerFetch
// answers a miss without executing the RunFunc, books the job as a
// cached done, and counts the peer hit.
func TestPeerFetchHookServesWithoutRunning(t *testing.T) {
	var runs, fetches atomic.Int64
	_, ts := newTestServer(t, Config{
		ID: "warm1",
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			runs.Add(1)
			return "computed", nil
		},
		PeerFetch: func(ctx context.Context, key string) (string, bool) {
			fetches.Add(1)
			return "from-peer", true
		},
	})

	v, code := submit(t, ts, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if !done.Cached {
		t.Fatalf("peer-served job cached = false, want true")
	}
	res, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK || res != "from-peer" {
		t.Fatalf("result = %d %q, want the peer's payload", resp.StatusCode, res)
	}
	if runs.Load() != 0 || fetches.Load() != 1 {
		t.Fatalf("runs = %d, fetches = %d; want 0 runs, 1 fetch", runs.Load(), fetches.Load())
	}

	m := metricsMap(t, ts)
	if m["peer_hits_total"] != 1 {
		t.Fatalf("peer_hits_total = %v, want 1", m["peer_hits_total"])
	}
	if m["jobs_done_cached_total"] != 1 {
		t.Fatalf("jobs_done_cached_total = %v, want 1", m["jobs_done_cached_total"])
	}
	if m["jobs_done_total"] != 1 {
		t.Fatalf("jobs_done_total = %v, want 1", m["jobs_done_total"])
	}

	// The peer payload is now the job's result: a resubmit dedups at
	// the job table without consulting the peer again.
	if _, code := submit(t, ts, seedBody(1)); code != http.StatusOK {
		t.Fatalf("resubmit: %d, want 200", code)
	}
	if fetches.Load() != 1 {
		t.Fatalf("resubmit consulted the peer again (%d fetches)", fetches.Load())
	}
}

// TestPeerFetchMissFallsThrough proves a PeerFetch that reports a miss
// leaves the job on the normal compute path, uncached.
func TestPeerFetchMissFallsThrough(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		ID: "cold1",
		Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
			runs.Add(1)
			return "computed", nil
		},
		PeerFetch: func(ctx context.Context, key string) (string, bool) { return "", false },
	})
	v, code := submit(t, ts, seedBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if done.Cached {
		t.Fatal("peer-missed job reported cached")
	}
	if res, _ := getResult(t, ts, v.ID); res != "computed" {
		t.Fatalf("result = %q", res)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	m := metricsMap(t, ts)
	if m["peer_hits_total"] != 0 || m["jobs_done_cached_total"] != 0 {
		t.Fatalf("peer_hits %v done_cached %v, want 0/0", m["peer_hits_total"], m["jobs_done_cached_total"])
	}
}

// TestStoreExportValidation pins the export endpoint's edges directly:
// well-formed unknown keys 404, malformed keys 400 (store.ValidKey is
// the arbiter), and a known key serves a CRC-framed entry.
func TestStoreExportValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		return "payload", nil
	}})
	v, code := submit(t, ts, seedBody(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, v.ID, StatusDone)

	get := func(key string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/store/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(v.ID); code != http.StatusOK {
		t.Fatalf("export of known key: %d", code)
	}
	if code := get(strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("export of unknown key: %d, want 404", code)
	}
	for _, bad := range []string{"short", strings.Repeat("Z", 64), strings.Repeat("0", 129)} {
		if code := get(bad); code != http.StatusBadRequest {
			t.Fatalf("export of malformed key %q: %d, want 400", bad, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/store/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if val, ok := store.Decode(data); !ok || val != "payload" {
		t.Fatalf("exported frame decodes (%v) to %q, want \"payload\"", ok, val)
	}
}

// exportKey fetches key through GET /v1/store/{key} and returns the
// status and, on 200, the decoded frame.
func exportKey(t *testing.T, ts *httptest.Server, key string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/store/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, ""
	}
	val, ok := store.Decode(data)
	if !ok {
		t.Fatalf("export of %s is not a valid frame", key)
	}
	return resp.StatusCode, val
}

// exportFixture starts a daemon whose table holds one done job
// ("payload") and whose store alone holds a second key ("durable"),
// and returns the server with both keys.
func exportFixture(t *testing.T) (ts *httptest.Server, doneKey, durableKey string) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	durableKey, err = SubmitKey([]byte(seedBody(21)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(durableKey, "durable"); err != nil {
		t.Fatal(err)
	}
	_, ts = newTestServer(t, Config{Store: st, Run: func(ctx context.Context, spec experiments.Spec) (string, error) {
		return "payload", nil
	}})
	v, _ := submit(t, ts, seedBody(20))
	waitStatus(t, ts, v.ID, StatusDone)
	return ts, v.ID, durableKey
}

// assertExportLeftNoTrace checks that every /metrics counter and the
// job count are where they were before the exports.
func assertExportLeftNoTrace(t *testing.T, ts *httptest.Server, before map[string]float64, jobsBefore int) {
	t.Helper()
	after := stableMetrics(metricsMap(t, ts))
	for name, was := range before {
		if after[name] != was {
			t.Errorf("export moved %s: %v -> %v", name, was, after[name])
		}
	}
	if len(after) != len(before) {
		t.Errorf("export changed the metric set: %d -> %d names", len(before), len(after))
	}
	if n := len(tsJobs(t, ts)); n != jobsBefore {
		t.Errorf("export recorded jobs: %d -> %d", jobsBefore, n)
	}
}

// stableMetrics drops the gauges that move with wall time alone.
func stableMetrics(m map[string]float64) map[string]float64 {
	delete(m, "uptime_seconds")
	delete(m, "sim_cycles_per_wall_second")
	return m
}

// TestStoreExportHasNoSideEffects pins the export endpoint's contract
// for peers: it serves a done job's result from the table and a key
// only the durable store holds, answers 404 for an absent key, and
// moves no /metrics counter and records no job — a fleet of peers
// probing this node must not distort its books.
func TestStoreExportHasNoSideEffects(t *testing.T) {
	ts, doneKey, durableKey := exportFixture(t)
	before := stableMetrics(metricsMap(t, ts))
	jobsBefore := len(tsJobs(t, ts))

	if code, val := exportKey(t, ts, doneKey); code != http.StatusOK || val != "payload" {
		t.Fatalf("export of done job = %d %q", code, val)
	}
	if code, val := exportKey(t, ts, durableKey); code != http.StatusOK || val != "durable" {
		t.Fatalf("export of store-only key = %d %q", code, val)
	}
	if code, _ := exportKey(t, ts, strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("export of absent key = %d, want 404", code)
	}

	assertExportLeftNoTrace(t, ts, before, jobsBefore)
}

// TestStoreExportReadFaultReadsAsAbsent: a failing store makes a peer
// probe miss (404, the prober recomputes), never fail, and counts no
// store error — the export is side-effect free even when the disk is
// not. A done job is still served from the table.
func TestStoreExportReadFaultReadsAsAbsent(t *testing.T) {
	ts, doneKey, durableKey := exportFixture(t)
	before := stableMetrics(metricsMap(t, ts))
	jobsBefore := len(tsJobs(t, ts))

	disarm := faultinject.Arm(faultinject.StoreRead, func(...string) error {
		return errors.New("injected read failure")
	})
	t.Cleanup(disarm)
	if code, _ := exportKey(t, ts, durableKey); code != http.StatusNotFound {
		t.Fatalf("export under a store read fault = %d, want 404", code)
	}
	if code, val := exportKey(t, ts, doneKey); code != http.StatusOK || val != "payload" {
		t.Fatalf("export of done job under a store read fault = %d %q", code, val)
	}
	disarm()

	assertExportLeftNoTrace(t, ts, before, jobsBefore)
}
