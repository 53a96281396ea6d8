package gateway

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// clusterSummed lists the sppd counters the merged view totals across
// backends, in emission order. Every name is an integral counter or
// gauge, so the cluster line is an exact sum, never a float estimate —
// the PR 5 tradition: totals that reconcile exactly. At quiescence the
// job-lifecycle sum obeys
//
//	jobs_submitted = jobs_deduplicated + jobs_rejected
//	              + jobs_done (cached hits + computed) + jobs_failed
//	              + jobs_canceled + jobs_timeout + jobs_checkpointed
//
// per backend and therefore for the cluster totals (the fault-matrix
// suite asserts it through a mid-sweep backend kill).
//
//simlint:metrics-writer
var clusterSummed = []string{
	"jobs_submitted_total",
	"jobs_deduplicated_total",
	"jobs_rejected_total",
	"jobs_queued",
	"jobs_running",
	"jobs_done_total",
	"jobs_done_cached_total",
	"jobs_failed_total",
	"jobs_canceled_total",
	"jobs_timeout_total",
	"jobs_checkpointed_total",
	"peer_hits_total",
	"cache_misses_total",
	"store_hits_total",
	"store_errors_total",
	"sim_cycles_total",
}

// handleMetrics renders the merged cluster view: the gateway's own
// counters, then every backend's sppd_* lines re-prefixed
// sppgw_backend_<id>_*, then sppgw_cluster_* exact totals summed over
// the backends that answered. A backend that fails its scrape is
// evicted and omitted — its counters die with it, and the totals
// remain internally consistent over the surviving set.
//
//simlint:metrics-writer
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.prune()
	uptime := g.cfg.Now().Sub(g.started).Seconds()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p := func(name string, format string, v any) {
		fmt.Fprintf(w, "sppgw_%s "+format+"\n", name, v)
	}
	backends := g.liveSorted()
	p("backends", "%d", int64(len(backends)))
	p("requests_total", "%d", g.requests.Load())
	p("submits_total", "%d", g.submits.Load())
	p("bad_submits_total", "%d", g.badSubmits.Load())
	p("proxy_retries_total", "%d", g.proxyRetries.Load())
	p("backend_evictions_total", "%d", g.evictions.Load())
	p("unavailable_total", "%d", g.unavailable.Load())
	p("peer_requests_total", "%d", g.peerRequests.Load())
	p("peer_hits_total", "%d", g.peerHits.Load())
	p("peer_probe_retries_total", "%d", g.peerProbeRetries.Load())
	p("heartbeats_total", "%d", g.heartbeats.Load())
	p("uptime_seconds", "%.3f", uptime)

	totals := make(map[string]int64, len(clusterSummed))
	summed := make(map[string]bool, len(clusterSummed))
	for _, name := range clusterSummed {
		summed[name] = true
	}
	for _, b := range backends {
		resp, data, err := g.roundTrip(b, http.MethodGet, "/metrics", nil)
		if err != nil {
			g.evict(b.id)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		sid := sanitizeID(b.id)
		for _, line := range strings.Split(string(data), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			bare, ok := strings.CutPrefix(name, "sppd_")
			if !ok {
				continue
			}
			fmt.Fprintf(w, "sppgw_backend_%s_%s %s\n", sid, bare, val)
			if summed[bare] {
				if n, err := strconv.ParseInt(val, 10, 64); err == nil {
					totals[bare] += n
				}
			}
		}
	}
	for _, name := range clusterSummed {
		p("cluster_"+name, "%d", totals[name])
	}
}

// sanitizeID folds a backend id into a metrics-safe token: letters and
// digits pass, everything else becomes '_' (ids commonly look like
// "127.0.0.1:8181").
func sanitizeID(id string) string {
	out := []byte(id)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
