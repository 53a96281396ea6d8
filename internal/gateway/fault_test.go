package gateway

// The cluster half of the fault matrix: backends die mid-sweep, peer
// fetches fail, forwards hit simulated connection errors — and the
// cluster must still finish every job with correct results and exact
// accounting. Tests that arm faultinject hooks must not run in
// parallel (Arm panics on overlap).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/store"
)

// TestBackendKillMidSweep is the headline fault drill: a two-backend
// cluster takes a sweep, one backend is killed while every job is
// still in flight, and the driver — retrying on 404 by resubmitting
// the same body, exactly what a content-addressed client does — still
// collects a complete, correct result set from the survivor.
func TestBackendKillMidSweep(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	blockedStub := func(ctx context.Context, spec experiments.Spec) (string, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		return fmt.Sprintf("seed:%d", spec.Options.Seed), nil
	}

	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})
	k1 := startBackend(t, g, ts.URL, "k1", blockedStub)
	k2 := startBackend(t, g, ts.URL, "k2", blockedStub)

	const seeds = 10
	ids := make(map[int]string, seeds)
	victimSeed := 0
	routed := map[string]bool{}
	for seed := 1; seed <= seeds; seed++ {
		v, resp := gwSubmit(t, ts.URL, seedBody(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: %d", seed, resp.StatusCode)
		}
		ids[seed] = v.ID
		backend := resp.Header.Get("X-Spp-Backend")
		routed[backend] = true
		if backend == "k2" {
			victimSeed = seed
		}
	}
	if victimSeed == 0 {
		t.Fatal("no key routed to the victim backend; the kill would prove nothing")
	}

	// Wait until each backend that took a key is running one. With one
	// worker, that job is past its peer fetch and held in the stub, so
	// no peer fetch can reach the gateway after the kill: a fetch that
	// did would make the gateway probe k2, find it dead and evict it
	// before the poll below could hit the corpse.
	for _, b := range []*testBackend{k1, k2} {
		for deadline := time.Now().Add(5 * time.Second); routed[b.id] && b.runs.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("backend %s took a key but never started running it", b.id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Kill k2 with its share of the sweep still queued or running, and
	// poll one of its jobs while the survivor's queue is still held: the
	// forward hits the corpse first. (Once released, the survivor's
	// queued jobs peer-fetch through the gateway, and a probe that found
	// k2 dead first would evict it without any forward retry.) Then let
	// the survivor's jobs finish.
	k2.kill()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[victimSeed])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()

	// Drive every job to done the way sppctl would: poll through the
	// gateway; a 404 means the key re-homed onto a backend that never
	// saw it, so resubmit the same body (pure jobs make this always
	// safe) and keep polling.
	deadline := time.Now().Add(10 * time.Second)
	for seed := 1; seed <= seeds; seed++ {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d never completed after the kill", seed)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[seed])
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			var v jobView
			if code == http.StatusOK {
				v = decodeView(t, resp)
			} else {
				resp.Body.Close()
			}
			if code == http.StatusNotFound {
				if _, rs := gwSubmit(t, ts.URL, seedBody(seed)); rs.StatusCode >= 300 {
					t.Fatalf("resubmit seed %d after kill: %d", seed, rs.StatusCode)
				}
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("poll seed %d: %d", seed, code)
			}
			if v.Status == "done" {
				if v.Backend != "k1" {
					t.Fatalf("seed %d finished on %q, want the survivor k1", seed, v.Backend)
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		res, rresp := gwResult(t, ts.URL, ids[seed])
		if rresp.StatusCode != http.StatusOK || res != fmt.Sprintf("seed:%d", seed) {
			t.Fatalf("seed %d result after kill = %d %q", seed, rresp.StatusCode, res)
		}
	}

	m := gwMetrics(t, ts.URL)
	if m["sppgw_backend_evictions_total"] < 1 {
		t.Errorf("evictions = %v, want >= 1 (the killed backend)", m["sppgw_backend_evictions_total"])
	}
	if m["sppgw_proxy_retries_total"] < 1 {
		t.Errorf("proxy_retries = %v, want >= 1 (forwards re-routed off the corpse)", m["sppgw_proxy_retries_total"])
	}
	if m["sppgw_backends"] != 1 {
		t.Errorf("live backends = %v, want 1", m["sppgw_backends"])
	}
	// The survivor's books still balance: every submission it saw is
	// deduped, rejected, or terminal. (The corpse's counters died with
	// it; the merged view only ever sums live backends.)
	sub := m["sppgw_cluster_jobs_submitted_total"]
	acc := m["sppgw_cluster_jobs_deduplicated_total"] + m["sppgw_cluster_jobs_rejected_total"] +
		m["sppgw_cluster_jobs_done_total"] + m["sppgw_cluster_jobs_failed_total"] +
		m["sppgw_cluster_jobs_canceled_total"] + m["sppgw_cluster_jobs_timeout_total"] +
		m["sppgw_cluster_jobs_checkpointed_total"]
	if sub == 0 || sub != acc {
		t.Errorf("survivor lifecycle: submitted %v, accounted %v", sub, acc)
	}
	if got := m["sppgw_cluster_jobs_done_total"]; got != seeds {
		t.Errorf("cluster done = %v, want %d (every seed completed on the survivor)", got, seeds)
	}
}

// decodeView reads one job view and closes the body.
func decodeView(t *testing.T, resp *http.Response) jobView {
	t.Helper()
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPeerFetchFailureRecomputes proves the warm path is only an
// optimization: when the peer fetch is fault-injected to fail, the
// re-homed key is recomputed locally and the result is still correct.
func TestPeerFetchFailureRecomputes(t *testing.T) {
	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})
	startBackend(t, g, ts.URL, "f1", nil)

	const seeds = 20
	orig := make(map[int]string, seeds)
	for seed := 1; seed <= seeds; seed++ {
		v, resp := gwSubmit(t, ts.URL, seedBody(seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit seed %d: %d", seed, resp.StatusCode)
		}
		gwWait(t, ts.URL, v.ID, "done")
		orig[seed], _ = gwResult(t, ts.URL, v.ID)
	}

	disarm := faultinject.Arm(faultinject.PeerFetch, func(args ...string) error {
		return fmt.Errorf("injected: peer fetch of %s failed", args[0])
	})
	defer disarm()

	f2 := startBackend(t, g, ts.URL, "f2", nil)
	mirror := NewRing(DefaultVNodes)
	mirror.Add("f1")
	mirror.Add("f2")
	moved := 0
	for seed := 1; seed <= seeds; seed++ {
		if owner, _ := mirror.Owner(seedKey(t, seed)); owner != "f2" {
			continue
		}
		moved++
		v, resp := gwSubmit(t, ts.URL, seedBody(seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("re-submit seed %d: %d", seed, resp.StatusCode)
		}
		done := gwWait(t, ts.URL, v.ID, "done")
		if done.Cached {
			t.Errorf("seed %d reported cached despite the peer-fetch fault: the warm path should have failed", seed)
		}
		if res, _ := gwResult(t, ts.URL, v.ID); res != orig[seed] {
			t.Errorf("seed %d: recomputed result differs from the original", seed)
		}
	}
	if moved == 0 {
		t.Fatal("no key re-homed onto f2; widen the seed sweep")
	}
	if got := f2.runs.Load(); got != int64(moved) {
		t.Errorf("f2 ran %d jobs, want %d (every failed peer fetch must fall back to a recompute)", got, moved)
	}
	m := gwMetrics(t, ts.URL)
	if got := m["sppgw_backend_f2_peer_hits_total"]; got != 0 {
		t.Errorf("f2 peer_hits_total = %v, want 0", got)
	}
}

// TestPeerProbeStaleWindowRetry drills the stale-candidates window in
// the peer-probe path: the candidate list is a snapshot of the ring, so
// a backend that dies between that lookup and its probe surfaces as a
// transport failure mid-pass, while the entry's real holder — rejoining
// inside that same window — is invisible to the pass. handlePeer must
// then retry exactly once against the re-resolved membership and serve
// the entry instead of answering a hard 404. The assertion on
// sppgw_peer_probe_retries_total here is also what keeps that metric on
// simlint's ledger reconcile surface.
func TestPeerProbeStaleWindowRetry(t *testing.T) {
	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})

	// h1 computes the entry while joined, then leaves gracefully — its
	// HTTP server (and store export) stays up, but it is off the ring.
	h1 := startBackend(t, g, ts.URL, "h1", nil)
	v, resp := gwSubmit(t, ts.URL, seedBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	gwWait(t, ts.URL, v.ID, "done")
	want, rresp := gwResult(t, ts.URL, v.ID)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", rresp.StatusCode)
	}
	g.Deregister("h1")

	// The ring now holds only a corpse. The armed hook makes probing it
	// fail like a refused connection — and re-registers h1 from inside
	// that failure window, the membership churn the retry exists for:
	// pass 1 sees only the corpse and comes back empty with a transport
	// failure; the retry resolves fresh and finds the holder.
	g.Register("stale", "http://127.0.0.1:1")
	disarm := faultinject.Arm(faultinject.GatewayPeerProbe, func(args ...string) error {
		if args[0] != "stale" {
			return nil
		}
		g.Register("h1", h1.ts.URL)
		return fmt.Errorf("injected: connection to %s refused", args[0])
	})
	defer disarm()

	presp, err := http.Get(ts.URL + "/v1/peer/" + seedKey(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("peer fetch = %d, want 200 served by the retry pass", presp.StatusCode)
	}
	frame, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := store.Decode(frame); !ok || got != want {
		t.Fatalf("peer entry decode ok=%v (%d frame bytes), want the original result intact", ok, len(frame))
	}

	m := gwMetrics(t, ts.URL)
	if m["sppgw_peer_probe_retries_total"] != 1 {
		t.Errorf("peer_probe_retries = %v, want exactly 1", m["sppgw_peer_probe_retries_total"])
	}
	// requests = 2: h1's own warm-miss lookup at submit time, then this
	// drill's fetch — of which only the drill's found a holder.
	if m["sppgw_peer_requests_total"] != 2 || m["sppgw_peer_hits_total"] != 1 {
		t.Errorf("peer requests/hits = %v/%v, want 2/1",
			m["sppgw_peer_requests_total"], m["sppgw_peer_hits_total"])
	}
	if m["sppgw_backends"] != 1 {
		t.Errorf("live backends = %v, want 1 (the corpse evicted, the holder back)", m["sppgw_backends"])
	}
}

// TestGatewayForwardFaultEvicts proves the faultinject hook behaves
// exactly like a refused connection: the targeted backend is evicted
// and the forward retries against the re-hashed owner, invisibly to
// the client.
func TestGatewayForwardFaultEvicts(t *testing.T) {
	stub := func(ctx context.Context, spec experiments.Spec) (string, error) {
		return fmt.Sprintf("seed:%d", spec.Options.Seed), nil
	}
	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})
	startBackend(t, g, ts.URL, "g1", stub)
	startBackend(t, g, ts.URL, "g2", stub)

	// Find a seed owned by g2, then make every forward to g2 fail.
	mirror := NewRing(DefaultVNodes)
	mirror.Add("g1")
	mirror.Add("g2")
	seed := 0
	for s := 1; ; s++ {
		if owner, _ := mirror.Owner(seedKey(t, s)); owner == "g2" {
			seed = s
			break
		}
	}
	disarm := faultinject.Arm(faultinject.GatewayForward, func(args ...string) error {
		if args[0] == "g2" {
			return fmt.Errorf("injected: connection to %s refused", args[0])
		}
		return nil
	})
	defer disarm()

	v, resp := gwSubmit(t, ts.URL, seedBody(seed))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "g1" {
		t.Fatalf("submit answered by %q, want g1 after g2's eviction", hdr)
	}
	done := gwWait(t, ts.URL, v.ID, "done")
	if done.Backend != "g1" {
		t.Fatalf("job ran on %q, want g1", done.Backend)
	}
	if res, _ := gwResult(t, ts.URL, v.ID); res != fmt.Sprintf("seed:%d", seed) {
		t.Fatalf("result = %q", res)
	}

	m := gwMetrics(t, ts.URL)
	if m["sppgw_backend_evictions_total"] != 1 {
		t.Errorf("evictions = %v, want 1", m["sppgw_backend_evictions_total"])
	}
	if m["sppgw_proxy_retries_total"] != 1 {
		t.Errorf("proxy_retries = %v, want 1", m["sppgw_proxy_retries_total"])
	}
	if m["sppgw_backends"] != 1 {
		t.Errorf("live backends = %v, want 1 (g2 evicted)", m["sppgw_backends"])
	}
}
