package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"spp1000/internal/sim"
)

// simCycles indirects sim.TotalCycles so the cycle source is obvious at
// the one call site that samples it.
func simCycles() int64 { return sim.TotalCycles() }

// handleMetrics renders the daemon's gauges and counters in the
// conventional one-per-line `name value` text form. The throughput
// gauge divides the simulated cycles retired since the daemon started
// by its wall uptime: simulated-cycles-per-wall-second is the
// end-to-end figure of merit for the whole engine (kernel fast path ×
// host parallelism × job-table and store hits all move it).
//
//simlint:metrics-writer
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	uptime := s.cfg.Now().Sub(s.started).Seconds()
	cycles := simCycles() - s.startCycles
	perSec := 0.0
	if uptime > 0 {
		perSec = float64(cycles) / uptime
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p := func(name string, format string, v any) {
		fmt.Fprintf(w, "sppd_%s "+format+"\n", name, v)
	}
	p("jobs_submitted_total", "%d", s.submitted.Load())
	p("jobs_deduplicated_total", "%d", s.deduped.Load())
	p("jobs_rejected_total", "%d", s.rejected.Load())
	p("jobs_queued", "%d", s.queuedN.Load())
	p("jobs_running", "%d", s.runningN.Load())
	p("jobs_done_total", "%d", s.done.Load())
	p("jobs_done_cached_total", "%d", s.doneCached.Load())
	p("jobs_failed_total", "%d", s.failed.Load())
	p("jobs_canceled_total", "%d", s.canceled.Load())
	p("jobs_timeout_total", "%d", s.timedout.Load())
	p("jobs_checkpointed_total", "%d", s.checkpointed.Load())
	p("queue_capacity", "%d", int64(s.cfg.QueueDepth))
	p("cache_misses_total", "%d", s.misses.Load())
	p("store_hits_total", "%d", s.storeHits.Load())
	p("store_errors_total", "%d", s.storeErrs.Load())
	p("peer_hits_total", "%d", s.peerHits.Load())
	p("busy_seconds_total", "%.3f", float64(s.busyNanos.Load())/1e9)
	p("sim_cycles_total", "%d", cycles)
	p("sim_cycles_per_wall_second", "%.0f", perSec)
	p("uptime_seconds", "%.3f", uptime)

	// The daemon-lifetime PMU aggregate: one line per counter, dots
	// flattened to underscores (cache.hn0.hits → sim_counter_cache_hn0_hits),
	// emitted in sorted order so scrapes diff cleanly.
	flat := s.SimCounters().Flatten()
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p("sim_counter_"+strings.ReplaceAll(k, ".", "_"), "%d", flat[k])
	}
}
