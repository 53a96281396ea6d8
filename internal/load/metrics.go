package load

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Metrics is one parsed snapshot of a daemon's /metrics endpoint:
// metric name (prefix already stripped) → value. Counters are integral
// in the wire format, so deltas of counters compare exactly.
type Metrics map[string]float64

// ParseMetrics parses the plaintext `name value` metrics format shared
// by sppd and sppgw. Only lines whose name starts with prefix are kept,
// with the prefix stripped; an empty prefix keeps every line under its
// full name. Unparsable lines are skipped — the format has no comments
// today, but the parser must not break if some are ever added.
func ParseMetrics(data string, prefix string) Metrics {
	m := make(Metrics)
	for _, line := range strings.Split(data, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if prefix != "" {
			name, ok = strings.CutPrefix(name, prefix)
			if !ok {
				continue
			}
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		m[name] = f
	}
	return m
}

// Scrape fetches baseURL+"/metrics" and parses it with ParseMetrics.
func Scrape(client *http.Client, baseURL, prefix string) (Metrics, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(strings.TrimSuffix(baseURL, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: %s", baseURL, resp.Status)
	}
	return ParseMetrics(string(data), prefix), nil
}

// Prefixes the harness understands. A standalone sppd serves sppd_*
// counters; a sppgw gateway serves exact cluster totals as
// sppgw_cluster_* (sums over its live backends), which obey the same
// book-keeping identities.
const (
	// SppdPrefix strips the standalone daemon's metric namespace.
	SppdPrefix = "sppd_"
	// GatewayPrefix strips the gateway's summed cluster namespace.
	GatewayPrefix = "sppgw_cluster_"
)

// DetectPrefix picks the metric prefix for a target by probing its
// /metrics once: a gateway exposes sppgw_* lines, a standalone daemon
// sppd_* lines.
func DetectPrefix(client *http.Client, baseURL string) (string, error) {
	all, err := Scrape(client, baseURL, "")
	if err != nil {
		return "", err
	}
	for name := range all {
		if strings.HasPrefix(name, "sppgw_") {
			return GatewayPrefix, nil
		}
	}
	return SppdPrefix, nil
}

// Delta returns m - prev per metric name, over the union of keys
// (a name absent from one side counts as 0 there).
func (m Metrics) Delta(prev Metrics) Metrics {
	out := make(Metrics, len(m))
	for name, v := range m {
		out[name] = v - prev[name]
	}
	for name, v := range prev {
		if _, ok := m[name]; !ok {
			out[name] = -v
		}
	}
	return out
}

// Tally is the client's own book of what it observed during a run —
// the left-hand side of every reconciliation equation. All fields are
// derived purely from HTTP responses, never from the server's metrics.
type Tally struct {
	// SubmitOK200 counts submits answered 200 (job already terminal —
	// the dedup-of-a-done-job fast path).
	SubmitOK200 int `json:"submitOk200"`
	// SubmitAccepted202 counts submits answered 202 (fresh enqueue, or
	// joined a still-live job).
	SubmitAccepted202 int `json:"submitAccepted202"`
	// SubmitRejected503 counts submits answered 503 (queue full or
	// draining).
	SubmitRejected503 int `json:"submitRejected503"`
	// SubmitBad400 counts submits answered 400. These never reach the
	// job table: the daemon's books must not move for them.
	SubmitBad400 int `json:"submitBad400"`
	// DistinctAccepted counts distinct job keys across all 200/202
	// submit responses: the number of jobs that actually exist
	// server-side because of this run.
	DistinctAccepted int `json:"distinctAccepted"`
	// Done/Failed/Canceled/Timeout/Checkpointed count the distinct
	// accepted keys by their final polled status. They sum to
	// DistinctAccepted once every key has been polled to a terminal state.
	Done         int `json:"done"`
	Failed       int `json:"failed"`
	Canceled     int `json:"canceled"`
	Timeout      int `json:"timeout"`
	Checkpointed int `json:"checkpointed"`
	// Unexpected counts responses outside the run's contract — wrong
	// status codes, malformed response bodies, transport errors. Any
	// nonzero value fails reconciliation outright.
	Unexpected int `json:"unexpected"`
}

// Check is one reconciliation equation: a server-side quantity and the
// client-side value it must equal exactly.
type Check struct {
	// Name is the server metric (prefix-stripped) under test.
	Name string `json:"name"`
	// Want is the client-derived value.
	Want int64 `json:"want"`
	// Got is the server-derived value (a counter delta, or an absolute
	// gauge for Gauge checks).
	Got int64 `json:"got"`
	// Gauge marks checks against an end-of-run absolute gauge reading
	// rather than a before/after counter delta.
	Gauge bool `json:"gauge,omitempty"`
	// OK is Want == Got.
	OK bool `json:"ok"`
}

// Reconciliation is the verdict of holding the client's Tally against
// the server's before/after metric deltas.
type Reconciliation struct {
	// OK is true when every check passed and nothing unexpected was
	// observed client-side.
	OK     bool    `json:"ok"`
	Checks []Check `json:"checks"`
}

// Reconcile holds the client Tally against the server's metric deltas
// (and end-of-run gauges) and demands exact equality, line by line.
// The equations assume the harness's run discipline against a daemon
// that was not restarted mid-run and whose job table was not pruned
// (MaxJobs at least the run's distinct-key count):
//
//	submitted  = 200s + 202s + 503s      (400s never reach Submit)
//	rejected   = 503s
//	deduplicated = (200s + 202s) - distinct accepted keys
//	done / failed / canceled / timeout / checkpointed = distinct keys
//	                                     polled to that terminal status
//	done_cached = 0: with every key still in the job table, resubmits
//	    dedup at the table, so no result is read back from the durable
//	    store (or a peer)
//	jobs_queued = jobs_running = 0 at end (every key polled terminal)
//
// cache_misses_total (jobs that reached the compute step) is
// deliberately left out: it counts runs, which the client cannot tell
// apart from peer fetches, and asserting it would couple the harness to
// daemon internals rather than the job-book contract.
func Reconcile(tally Tally, delta, final Metrics) Reconciliation {
	counter := func(name string, want int) Check {
		got := int64(delta[name])
		w := int64(want)
		return Check{Name: name, Want: w, Got: got, OK: got == w}
	}
	gauge := func(name string, want int) Check {
		got := int64(final[name])
		w := int64(want)
		return Check{Name: name, Want: w, Got: got, Gauge: true, OK: got == w}
	}
	accepted := tally.SubmitOK200 + tally.SubmitAccepted202
	r := Reconciliation{Checks: []Check{
		counter("jobs_submitted_total", accepted+tally.SubmitRejected503),
		counter("jobs_rejected_total", tally.SubmitRejected503),
		counter("jobs_deduplicated_total", accepted-tally.DistinctAccepted),
		counter("jobs_done_total", tally.Done),
		counter("jobs_failed_total", tally.Failed),
		counter("jobs_canceled_total", tally.Canceled),
		counter("jobs_timeout_total", tally.Timeout),
		counter("jobs_checkpointed_total", tally.Checkpointed),
		counter("jobs_done_cached_total", 0),
		gauge("jobs_queued", 0),
		gauge("jobs_running", 0),
	}}
	r.OK = tally.Unexpected == 0 &&
		tally.Done+tally.Failed+tally.Canceled+tally.Timeout+tally.Checkpointed == tally.DistinctAccepted
	for _, c := range r.Checks {
		r.OK = r.OK && c.OK
	}
	return r
}

// Failures renders the failed checks (and any client-side
// inconsistency) one per line, for error messages.
func (r Reconciliation) Failures() string {
	var b strings.Builder
	for _, c := range r.Checks {
		if c.OK {
			continue
		}
		kind := "delta"
		if c.Gauge {
			kind = "gauge"
		}
		fmt.Fprintf(&b, "%s: server %s %d, client wants %d\n", c.Name, kind, c.Got, c.Want)
	}
	return b.String()
}
