package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/service"
	"spp1000/internal/store"
)

// serviceExperiments is the spec every request of the mix names, at
// quick scale; requests differ only in Options.Seed, which these three
// experiments do not read, so every result is the same rendering.
var serviceExperiments = []string{"fig2", "fig3", "fig4"}

const (
	// serviceRounds is how many rounds each client makes per pass.
	serviceRounds = 2
	// pollInterval is how long a client waits between status polls.
	pollInterval = 2 * time.Millisecond
	// jobTable is the daemon's default job-table bound (service.Config
	// MaxJobs); set-up fills the table so the window measures a daemon
	// in steady state, not one whose table and heap are still growing.
	jobTable = 1024
	// storeKeys is how many results set-up writes to the store. Warm
	// requests cycle through all of them, so a key comes back only after
	// storeKeys-1 other jobs have entered the job table and the result
	// cache, more than either holds (1024 jobs, 256 results by default):
	// every warm request is a read from disk, however long the window.
	storeKeys = 2 * jobTable
)

// serviceRound is one client's request sequence: never-seen specs that
// must simulate (cold), resubmits of the round's latest cold key,
// answered from the job table (hot), and keys that exist only in the
// pre-filled store (warm). The shares are 30% cold and 40% hot, the
// cold and hot weights of sppload's default mix (hot=40, cold=30,
// cancel=10, timeout=10, malformed=10). The other 30% of that mix ends
// without a result and would count as failures here, so it goes to
// warm; that share is a placeholder, as no recorded traffic measures
// how often a restarted daemon is asked for results only its store
// holds.
var serviceRound = []string{"cold", "hot", "warm", "hot", "cold", "warm", "hot", "cold", "warm", "hot"}

// serviceBench is the service workload: an in-process sppd (one job
// worker, durable store in a scratch directory) behind its real HTTP
// handler on loopback, driven closed-loop by hostWidth() clients, each
// on its own connection.
type serviceBench struct {
	chk     *checker
	srv     *service.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	clients int
	golden  string

	mu       sync.Mutex
	seed0    uint64         // seed of the first pre-filled store key
	nextCold uint64         // seed of the latest cold request
	nextWarm int            // index of the next warm key, mod storeKeys
	counts   map[string]int // requests by class since the last reconcile
	lastOp   int
	lat      map[string][]float64 // untraced latencies by class, ms
	busy     time.Duration        // summed untraced pass time
	ops      int                  // untraced operations
	books    map[string]float64   // /metrics at the last reconcile
}

// serviceSpec is the mix's spec for one seed.
func serviceSpec(seed uint64) (experiments.Spec, error) {
	o := experiments.Quick()
	o.Seed = seed
	return experiments.Spec{Experiments: serviceExperiments, Options: o}.Normalize()
}

// storeSeed is the seed of the first pre-filled store key.
func storeSeed(cfg config) uint64 { return cfg.seed * 10_000_000 }

// serviceInputs writes the previous daemon life the workload starts
// from: storeKeys results that only the durable store holds. It runs
// once, before the timed set-ups, each of which opens the store as a
// restarted daemon would.
func serviceInputs(cfg config) error {
	st, err := store.Open(filepath.Join(cfg.work, "store"), 0)
	if err != nil {
		return err
	}
	spec, err := serviceSpec(cfg.seed)
	if err != nil {
		return err
	}
	res, err := service.DefaultRun(context.Background(), spec)
	if err != nil {
		return err
	}
	for i := 0; i < storeKeys; i++ {
		spec, err := serviceSpec(storeSeed(cfg) + uint64(i))
		if err != nil {
			return err
		}
		if err := st.Put(spec.Key(), res); err != nil {
			return err
		}
	}
	return nil
}

func setupService(cfg config, chk *checker) (bench, error) {
	b := &serviceBench{chk: chk, clients: hostWidth(), counts: make(map[string]int), lat: make(map[string][]float64)}
	if err := b.start(cfg); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serviceBench) start(cfg config) error {
	st, err := store.Open(filepath.Join(cfg.work, "store"), 0)
	if err != nil {
		return err
	}
	// The expected rendering of every request.
	spec, err := serviceSpec(cfg.seed)
	if err != nil {
		return err
	}
	if b.golden, err = service.DefaultRun(context.Background(), spec); err != nil {
		return err
	}
	if err := b.chk.check("service.result", digest(b.golden)); err != nil {
		return err
	}
	// The first jobTable store keys fill the job table; warm requests
	// start after them.
	b.seed0 = storeSeed(cfg)
	b.nextCold = b.seed0 + 5_000_000
	b.nextWarm = jobTable
	b.srv = service.New(service.Config{Workers: 1, Store: st})
	for i := 0; i < jobTable; i++ {
		spec, err := serviceSpec(b.seed0 + uint64(i))
		if err != nil {
			return err
		}
		if _, err := b.srv.Submit(spec, 0); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: b.clients, MaxIdleConnsPerHost: b.clients},
	}
	b.books, err = b.scrape()
	return err
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if b.hs != nil {
		errs = append(errs, b.hs.Shutdown(ctx))
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		b.client.CloseIdleConnections()
	}
	if b.srv != nil {
		errs = append(errs, b.srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

func (b *serviceBench) pass(tr *tracer, parent int) (tally, error) {
	t0 := time.Now()
	tallies := make([]tally, b.clients)
	errs := make([]error, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c], errs[c] = b.runClient(tr, parent, c)
		}(c)
	}
	wg.Wait()
	var t tally
	for _, ct := range tallies {
		t.add(ct)
	}
	if tr == nil {
		b.mu.Lock()
		b.busy += time.Since(t0)
		b.ops += t.ops
		b.mu.Unlock()
	}
	return t, errors.Join(errs...)
}

// runClient makes one client's rounds, closed loop: each request is
// sent when the previous one has returned its result.
func (b *serviceBench) runClient(tr *tracer, parent, c int) (tally, error) {
	lane := c + 1
	tr.nameLane(lane, fmt.Sprintf("client %d", c))
	var t tally
	for r := 0; r < serviceRounds; r++ {
		var hot []byte // the spec of this round's latest cold request
		for _, class := range serviceRound {
			body := hot
			if class != "hot" {
				seed := b.take(class)
				spec, err := serviceSpec(seed)
				if err != nil {
					return t, err
				}
				if body, err = json.Marshal(spec); err != nil {
					return t, err
				}
			}
			if class == "cold" {
				hot = body
			}
			op := b.count(class)
			t0 := time.Now()
			err := tr.do("service."+class, parent, op, lane, func(id int) error {
				return b.request(tr, id, op, lane, class, body)
			})
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			t.ops++
			if err != nil {
				return t, fmt.Errorf("%s request: %w", class, err)
			}
			if class == "cold" {
				t.sims++
			}
			if tr == nil {
				b.mu.Lock()
				b.lat[class] = append(b.lat[class], ms)
				b.mu.Unlock()
			}
		}
	}
	return t, nil
}

// take hands out the seed of the next cold or warm request.
func (b *serviceBench) take(class string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if class == "cold" {
		b.nextCold++
		return b.nextCold
	}
	seed := b.seed0 + uint64(b.nextWarm)
	b.nextWarm = (b.nextWarm + 1) % storeKeys
	return seed
}

// count tallies one request of class since the last reconcile and
// returns a run-unique operation id.
func (b *serviceBench) count(class string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts[class]++
	b.lastOp++
	return b.lastOp
}

// jobView is the part of the daemon's job view the client reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// request makes one submit → (poll) → result exchange and checks it:
// a cold request must run fresh, hot and warm ones must be answered
// without a run, and every result must equal the golden rendering.
func (b *serviceBench) request(tr *tracer, parent, op, lane int, class string, body []byte) error {
	var v jobView
	err := tr.do("service."+class+".submit", parent, op, lane, func(int) error {
		resp, err := b.client.Post(b.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer drain(resp)
		want := http.StatusOK
		if class == "cold" {
			want = http.StatusAccepted
		}
		if resp.StatusCode != want {
			return fmt.Errorf("submit: status %d, want %d", resp.StatusCode, want)
		}
		return json.NewDecoder(resp.Body).Decode(&v)
	})
	if err != nil {
		return err
	}
	if class == "cold" {
		err = tr.do("service.cold.poll", parent, op, lane, func(int) error {
			for v.Status != string(service.StatusDone) {
				if service.Status(v.Status).Terminal() {
					return fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
				}
				time.Sleep(pollInterval)
				if err := b.getJSON("/v1/jobs/"+v.ID, &v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if wantCached := class != "cold"; v.Cached != wantCached {
		return fmt.Errorf("job %s: cached=%t, want %t", v.ID, v.Cached, wantCached)
	}
	return tr.do("service."+class+".result", parent, op, lane, func(int) error {
		resp, err := b.client.Get(b.base + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("result: status %d: %s", resp.StatusCode, got)
		}
		if string(got) != b.golden {
			return fmt.Errorf("job %s: result differs from the golden fig2,fig3,fig4 rendering (digest %s)", v.ID, digest(string(got)))
		}
		return nil
	})
}

func (b *serviceBench) getJSON(path string, v any) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain reads what is left of a response body and closes it, so the
// client keeps its connection for the next request.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// scrape reads the daemon's /metrics counters.
func (b *serviceBench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		out[strings.TrimPrefix(name, "sppd_")] = f
	}
	return out, sc.Err()
}

// reconcile checks the daemon's /metrics deltas since the last call
// against the client tally: every submission counted, hot requests
// deduplicated, warm ones served from the store as cached completions,
// nothing refused or failed. It returns the fresh runs the daemon
// reports.
func (b *serviceBench) reconcile(tally) (int, error) {
	now, err := b.scrape()
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	c := b.counts
	b.counts = make(map[string]int)
	b.mu.Unlock()
	delta := func(name string) int { return int(now[name] - b.books[name]) }
	want := map[string]int{
		"jobs_submitted_total":    c["cold"] + c["hot"] + c["warm"],
		"jobs_deduplicated_total": c["hot"],
		"jobs_done_total":         c["cold"] + c["warm"],
		"jobs_done_cached_total":  c["warm"],
		"store_hits_total":        c["warm"],
		"jobs_rejected_total":     0,
		"jobs_failed_total":       0,
		"jobs_canceled_total":     0,
		"jobs_timeout_total":      0,
	}
	for name, n := range want {
		if got := delta(name); got != n {
			return 0, fmt.Errorf("/metrics books: %s moved by %d, client tally %d", name, got, n)
		}
	}
	fresh := delta("jobs_done_total") - delta("jobs_done_cached_total")
	b.books = now
	return fresh, nil
}

// summary reports per-class latency: the median and the highest
// percentile with at least ten samples beyond it, with the sample count.
func (b *serviceBench) summary(r *report) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, class := range []string{"cold", "hot", "warm"} {
		s := b.lat[class]
		r.add("service."+class+"_p50_ms", percentile(s, 0.5), "ms")
		if q, v, ok := tail(s); ok && q > 0.5 {
			r.add(fmt.Sprintf("service.%s_%s_ms", class, pctName(q)), v, "ms")
		}
		r.note("service.%s latency samples: n=%d", class, len(s))
	}
	if b.busy > 0 {
		r.add("service.ops_per_s", float64(b.ops)/b.busy.Seconds(), "1/s")
	}
}

// pctName renders a percentile as p50, p90, p99, p99.9.
func pctName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}
