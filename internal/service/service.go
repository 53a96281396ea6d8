// Package service is sppd's core: it turns the deterministic experiment
// engine into a long-running simulation-as-a-service daemon. Jobs are
// submitted over HTTP, content-addressed by the canonical hash of their
// full configuration (experiments.Spec.Key), queued onto a bounded queue,
// and executed by a small worker pool that dispatches sweep points
// through internal/runner. Because every job is a pure function of its
// spec, identical submissions join the one job-table record for their
// key (in flight or done), and a result the table no longer holds is
// read back from the durable store — the service's hot path is a hash
// lookup, not a simulation.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spp1000/internal/counters"
	"spp1000/internal/experiments"
	"spp1000/internal/faultinject"
	"spp1000/internal/snapshot"
	"spp1000/internal/store"
)

// RunFunc executes one normalized spec and returns its rendered result.
// It must honor ctx cancellation by stopping the dispatch of further
// work. The default (DefaultRun) renders the named experiments exactly
// as `sppbench -exp` does; tests substitute counters and stubs.
type RunFunc func(ctx context.Context, spec experiments.Spec) (string, error)

// DefaultRun renders spec's experiments with the sppbench banner
// format, dispatching through the host worker pool.
func DefaultRun(ctx context.Context, spec experiments.Spec) (string, error) {
	outs, err := experiments.RunManyCtx(ctx, spec.Experiments, spec.Options)
	if err != nil {
		return "", err
	}
	return renderBanners(spec.Experiments, outs), nil
}

// renderBanners assembles per-experiment outputs into the sppbench
// banner format — one code path, so the checkpointed and plain runners
// produce byte-identical results for the same spec.
func renderBanners(names, outs []string) string {
	var b strings.Builder
	for i, name := range names {
		fmt.Fprintf(&b, "=== %s ===\n%s\n", name, outs[i])
	}
	return b.String()
}

// CheckpointRunFunc executes one normalized spec with checkpoint
// support. prior is the encoded checkpoint of an earlier interrupted
// run of the same spec (nil to start fresh; implementations must treat
// undecodable or mismatched bytes as absent). save persists an encoded
// checkpoint at each boundary. On success the partial return is nil; on
// a ctx error it carries the completed-prefix checkpoint (nil when
// nothing completed), which the daemon keeps so a resubmission resumes
// instead of recomputing.
type CheckpointRunFunc func(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (result string, partial []byte, err error)

// DefaultRunCheckpointed renders spec's experiments exactly like
// DefaultRun, but through the resumable experiments.RunCheckpointed
// driver: a checkpoint is saved after every completed experiment, a
// valid prior checkpoint skips its completed prefix, and a deadline that
// fires mid-suite returns the work done so far as a partial checkpoint.
func DefaultRunCheckpointed(ctx context.Context, spec experiments.Spec, prior []byte, save func([]byte) error) (string, []byte, error) {
	var pc *snapshot.Checkpoint
	if len(prior) > 0 {
		// Undecodable or wrong-spec prior bytes mean "no checkpoint":
		// recompute from scratch rather than fail the job.
		if c, derr := snapshot.DecodeCheckpoint(prior); derr == nil && c.SpecKey == spec.Key() {
			pc = c
		}
	}
	var saveCp func(*snapshot.Checkpoint) error
	if save != nil {
		saveCp = func(c *snapshot.Checkpoint) error { return save(c.Encode()) }
	}
	outs, cp, err := experiments.RunCheckpointed(ctx, spec.Experiments, spec.Options, pc, saveCp)
	if err != nil {
		var partial []byte
		if cp != nil && len(cp.Done) > 0 {
			partial = cp.Encode()
		}
		return "", partial, err
	}
	return renderBanners(spec.Experiments, outs), nil, nil
}

// Config sizes the daemon.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with 503 rather than queued without bound.
	// Default 64.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Each job
	// already fans its sweep points across the host cores, so the
	// default is 1; raising it trades per-job latency for throughput
	// when jobs are small.
	Workers int
	// MaxJobs bounds the job table; the oldest finished jobs are pruned
	// beyond it. A pruned job's result is served from the durable store
	// if it holds one, and recomputed otherwise. Default 1024.
	MaxJobs int
	// Run executes a job. Tests substitute stubs here; when both Run and
	// RunCheckpointed are nil the daemon defaults to the checkpointing
	// runner (DefaultRunCheckpointed).
	Run RunFunc
	// RunCheckpointed, when set, executes jobs with checkpoint support
	// and takes precedence over Run: a job whose deadline fires mid-suite
	// keeps its completed-prefix checkpoint and lands in the terminal
	// status "checkpointed"; resubmitting the same spec resumes from the
	// checkpoint instead of recomputing. Default DefaultRunCheckpointed
	// when Run is also nil.
	RunCheckpointed CheckpointRunFunc
	// JobTimeout bounds each job's execution (queue wait excluded): a
	// run still going when the deadline expires has its context
	// cancelled — stopping sweep-point dispatch — and the job reports
	// the terminal status "timeout". 0 (the default) means no deadline.
	// A submission's own timeout (the API's "timeout" field) overrides
	// this per job.
	JobTimeout time.Duration
	// Store is the optional durable result store: completed results are
	// written to it, and a submission the job table cannot answer reads
	// it first — so a restarted daemon pointed at the same store serves
	// prior results with no simulation run. nil (the default) keeps
	// results in the job table only.
	Store *store.Store
	// ID names this daemon in a sppgw cluster. When set it is echoed as
	// the "backend" field of every job view and as the X-Spp-Backend
	// response header, so a misrouted request — a key the ring says
	// belongs elsewhere — is immediately diagnosable from either the
	// JSON or the wire. Empty (the default) for a standalone daemon.
	ID string
	// PeerFetch, when set, is consulted before a job whose result is
	// unknown locally is computed: in a cluster it asks the gateway for
	// the previous ring owner's store entry, so a key re-hashed onto
	// this backend (after a join or an eviction) becomes a warm hit
	// instead of a recompute. It must return the exact prior payload and
	// true, or ("", false) to compute locally; it is trust-but-verify —
	// the transport validates the CRC32 frame before the payload gets
	// here. nil (the default) always computes locally.
	PeerFetch func(ctx context.Context, key string) (string, bool)
	// Now supplies the wall-clock timestamps stamped onto job lifecycle
	// views (submittedAt/startedAt/finishedAt) and the uptime metric.
	// Injecting it here keeps the daemon's state machine free of direct
	// clock reads — the wall clock enters at exactly one annotated spot
	// in withDefaults — and lets tests pin time. Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Run == nil && c.RunCheckpointed == nil {
		c.RunCheckpointed = DefaultRunCheckpointed
	}
	if c.Now == nil {
		//simlint:allow determinism the daemon's single wall-clock source: lifecycle stamps and uptime, never job results or spec keys
		c.Now = time.Now
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	// StatusTimeout marks a job whose execution deadline (Config.JobTimeout
	// or the submission's own timeout) expired before it finished. Like
	// failed and canceled jobs, it re-arms on resubmission.
	StatusTimeout Status = "timeout"
	// StatusCheckpointed marks a job whose deadline expired after part of
	// its suite completed: the completed prefix is held as a checkpoint
	// (in memory and, with a durable store, on disk) instead of being
	// discarded. Terminal like timeout — waiters unblock — but
	// resubmitting the same spec re-arms the job and resumes from the
	// checkpoint, recomputing nothing already done.
	StatusCheckpointed Status = "checkpointed"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusTimeout || s == StatusCheckpointed
}

// job is the server-side record of one submission. The job id IS the
// spec's content address, so "the same job" and "the same configuration"
// are one notion.
type job struct {
	id   string
	spec experiments.Spec

	// guarded by Server.mu
	status     Status
	cached     bool // result served from the store or a peer, no simulation run
	result     string
	counters   map[string]int64 // flattened PMU snapshot of the run
	checkpoint []byte           // encoded completed-prefix checkpoint; survives re-arm
	errMsg     string
	timeout    time.Duration // execution deadline; 0 = none
	submitted  time.Time
	started    time.Time
	finished   time.Time

	ctx    context.Context
	cancel context.CancelFunc
}

// Server owns the job table, the bounded queue, and the worker pool.
// Create with New; it is ready (workers running) on return.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for list + pruning
	queue    chan *job
	draining bool

	wg sync.WaitGroup // worker goroutines

	started     time.Time
	startCycles int64

	// sim aggregates the PMU counters of every simulation the daemon
	// runs, for /metrics; attached for the server's lifetime.
	sim *counters.Collector

	// cumulative counters (atomics: read by /metrics without the lock)
	submitted    atomic.Int64 // all submissions (incl. deduped and rejected)
	deduped      atomic.Int64 // submissions answered by an existing job
	rejected     atomic.Int64 // submissions refused (queue full or draining)
	done         atomic.Int64
	doneCached   atomic.Int64 // done transitions answered without a fresh simulation
	peerHits     atomic.Int64 // done transitions answered by a peer-fetched entry
	failed       atomic.Int64
	canceled     atomic.Int64
	timedout     atomic.Int64
	checkpointed atomic.Int64 // deadline fired with partial progress checkpointed
	queuedN      atomic.Int64 // gauge
	runningN     atomic.Int64 // gauge
	busyNanos    atomic.Int64 // summed wall time of job executions
	misses       atomic.Int64 // jobs that reached the compute step (cache_misses_total)
	storeHits    atomic.Int64 // submissions answered by the durable store
	storeErrs    atomic.Int64 // durable-store failures degraded around
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		jobs:        make(map[string]*job),
		queue:       make(chan *job, cfg.QueueDepth),
		started:     cfg.Now(),
		startCycles: simCycles(),
		sim:         counters.NewCollector(),
	}
	counters.Attach(s.sim)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 503.
var ErrQueueFull = errors.New("job queue full")

// ErrDraining is returned by Submit during shutdown.
var ErrDraining = errors.New("server is draining")

// Submit registers (or re-joins) the job for spec and returns its
// snapshot. The spec must already be normalized. timeout bounds the
// job's execution (0 falls back to Config.JobTimeout); it is execution
// policy, not configuration, so it is deliberately outside the content
// address — a submission that joins an existing live job does not
// change that job's deadline. Outcomes:
//
//   - no prior state: the job is enqueued (ErrQueueFull if the bounded
//     queue is at capacity).
//   - an identical job is queued, running, or done: that job is
//     returned as-is — concurrent duplicates coalesce onto one run and
//     repeats of a finished job see its result with no new simulation.
//   - the identical job failed, was canceled, or timed out: it is
//     re-armed and enqueued again (deterministic simulations don't fail
//     flakily, but cancellation and deadlines are routine).
//   - the result is known to the durable store with no live job (the
//     job table was pruned, or the daemon restarted): a completed job
//     record is synthesized from it, with no simulation.
func (s *Server) Submit(spec experiments.Spec, timeout time.Duration) (JobView, error) {
	key := spec.Key()
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted.Add(1)
	if s.draining {
		s.rejected.Add(1)
		return JobView{}, ErrDraining
	}

	if j, ok := s.jobs[key]; ok {
		if !j.status.Terminal() || j.status == StatusDone {
			s.deduped.Add(1)
			v := s.viewLocked(j)
			if j.status == StatusDone {
				// This submission was answered without a new run.
				v.Cached = true
			}
			return v, nil
		}
		// failed, canceled, timed out, or checkpointed: re-arm the same
		// record and run again. j.checkpoint is deliberately untouched —
		// a checkpointed job resumes from its completed prefix.
		j.ctx, j.cancel = context.WithCancel(context.Background())
		j.status = StatusQueued
		j.cached = false
		j.errMsg = ""
		j.result = ""
		j.timeout = timeout
		j.submitted = s.cfg.Now()
		j.started, j.finished = time.Time{}, time.Time{}
		select {
		case s.queue <- j:
			s.queuedN.Add(1)
			return s.viewLocked(j), nil
		default:
			// The re-arm failed: the record must land terminal with the
			// books balanced — tallied as canceled, finish-stamped, and
			// its fresh context released — or /metrics totals drift and
			// the job view shows a terminal job with no FinishedAt.
			j.cancel()
			j.status = StatusCanceled
			j.errMsg = ErrQueueFull.Error()
			j.finished = s.cfg.Now()
			s.canceled.Add(1)
			s.rejected.Add(1)
			return JobView{}, ErrQueueFull
		}
	}

	j := &job{id: key, spec: spec, timeout: timeout, submitted: s.cfg.Now()}
	if res, ok := s.storeGet(key); ok {
		// Result known from an earlier (since-pruned) job or from a
		// previous daemon life: serve it without queueing anything.
		j.status = StatusDone
		j.cached = true
		j.result = res
		j.finished = j.submitted
		s.insertLocked(j)
		s.done.Add(1)
		s.doneCached.Add(1)
		return s.viewLocked(j), nil
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.status = StatusQueued
	select {
	case s.queue <- j:
	default:
		j.cancel()
		s.rejected.Add(1)
		return JobView{}, ErrQueueFull
	}
	s.queuedN.Add(1)
	s.insertLocked(j)
	return s.viewLocked(j), nil
}

// storeGet reads key's result from the durable store, counting a hit
// or a failure. A failed read is a miss: the job is recomputed.
func (s *Server) storeGet(key string) (string, bool) {
	if s.cfg.Store == nil {
		return "", false
	}
	val, ok, err := s.cfg.Store.Get(key)
	switch {
	case err != nil:
		s.storeErrs.Add(1)
		return "", false
	case ok:
		s.storeHits.Add(1)
	}
	return val, ok
}

// insertLocked records j and prunes the oldest finished jobs beyond
// MaxJobs. Callers hold s.mu.
func (s *Server) insertLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		old := s.jobs[id]
		if excess > 0 && old != nil && old.status.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// worker drains the queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued {
		// Withdrawn by Cancel while waiting: tallied and de-gauged at
		// cancel time, so dequeueing the corpse touches nothing.
		s.mu.Unlock()
		return
	}
	s.queuedN.Add(-1)
	j.status = StatusRunning
	j.started = s.cfg.Now()
	timeout := j.timeout
	prior := j.checkpoint
	s.mu.Unlock()
	s.runningN.Add(1)

	// Resume state for the checkpointing runner: the in-memory checkpoint
	// of a prior interrupted run, or — after a daemon restart — the
	// durable store's copy. Corrupt or mismatched bytes are filtered by
	// the runner, never trusted.
	if s.cfg.RunCheckpointed != nil && prior == nil && s.cfg.Store != nil {
		val, ok, err := s.cfg.Store.Get(checkpointKey(j.id))
		switch {
		case err != nil:
			s.storeErrs.Add(1)
		case ok:
			prior = []byte(val)
		}
	}

	// The execution deadline derives from the job's own context, so a
	// user cancel and a timeout share one cancellation path and are
	// told apart by the context error.
	runCtx, cancelRun := j.ctx, context.CancelFunc(func() {})
	if timeout > 0 {
		runCtx, cancelRun = context.WithTimeout(j.ctx, timeout)
	}
	defer cancelRun()

	// Per-job PMU attribution: every machine built while this collector
	// is attached enables counters and publishes into it on completion.
	// Attribution is exact at the default Workers=1; with concurrent
	// jobs, each collector sees the union of whatever ran during its
	// window (the /metrics aggregate stays exact either way). A
	// peer-fetched job runs no simulation, so its snapshot is empty.
	jobCol := counters.NewCollector()
	counters.Attach(jobCol)
	s.misses.Add(1)
	res, partial, peerFetched, err := s.execute(runCtx, j, prior)
	counters.Detach(jobCol)
	if err == nil && s.cfg.Store != nil {
		// Persist the result, then drop the resume checkpoint it
		// supersedes: a stale checkpoint would squat store capacity
		// forever, since it is never read once the job is done. A
		// failed write leaves the result in the job table only.
		if perr := s.cfg.Store.Put(j.id, res); perr != nil {
			s.storeErrs.Add(1)
		}
		if derr := s.cfg.Store.Delete(checkpointKey(j.id)); derr != nil {
			s.storeErrs.Add(1)
		}
	}

	s.runningN.Add(-1)
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = s.cfg.Now()
	s.busyNanos.Add(int64(j.finished.Sub(j.started)))
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		j.cached = peerFetched
		j.checkpoint = nil // complete: the resume state is spent
		if !j.cached {
			if flat := jobCol.Snapshot().Flatten(); len(flat) > 0 {
				j.counters = flat
			}
		}
		s.done.Add(1)
		if peerFetched {
			s.doneCached.Add(1)
			s.peerHits.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded) && len(partial) > 0:
		// The deadline fired with part of the suite complete: keep the
		// work instead of discarding it. The status is terminal (waiters
		// unblock exactly as on timeout) but a resubmission of the same
		// spec re-arms the job and resumes from this checkpoint.
		j.status = StatusCheckpointed
		j.checkpoint = partial
		j.errMsg = fmt.Sprintf("deadline exceeded after %v; progress checkpointed, resubmit to resume", timeout)
		s.checkpointed.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.status = StatusTimeout
		j.errMsg = err.Error()
		if timeout > 0 {
			j.errMsg = fmt.Sprintf("deadline exceeded after %v", timeout)
		}
		s.timedout.Add(1)
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
		j.errMsg = err.Error()
		s.canceled.Add(1)
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		s.failed.Add(1)
	}
}

// execute runs j once: a cluster peer's copy of the result if one
// answers, else the checkpointing or plain runner.
func (s *Server) execute(ctx context.Context, j *job, prior []byte) (res string, partial []byte, peerFetched bool, err error) {
	// Test-only fault injection: the fault-matrix suite arms this point
	// to delay runs (filling the queue) or fail them.
	if err := faultinject.Fire(faultinject.RunStart, j.id); err != nil {
		return "", nil, false, err
	}
	// Cluster warm path: a key that re-hashed onto this backend may
	// already be computed on its previous ring owner — copy the entry
	// instead of re-simulating. runJob writes it to this backend's own
	// store, so the next restart serves it locally.
	if pf := s.cfg.PeerFetch; pf != nil {
		if val, ok := pf(ctx, j.id); ok {
			return val, nil, true, nil
		}
	}
	if s.cfg.RunCheckpointed != nil {
		res, partial, err = s.cfg.RunCheckpointed(ctx, j.spec, prior, s.saveCheckpoint(j))
		return res, partial, false, err
	}
	res, err = s.cfg.Run(ctx, j.spec)
	return res, nil, false, err
}

// checkpointKey derives the durable-store key holding a job's resume
// checkpoint: a distinct content address in the same namespace as the
// result entries (lowercase hex, so store.ValidKey accepts it), derived
// from the job id so restart-resume finds it with no extra index.
func checkpointKey(id string) string {
	sum := sha256.Sum256([]byte("spp-checkpoint-v1\n" + id))
	return hex.EncodeToString(sum[:])
}

// saveCheckpoint returns the per-boundary persist callback handed to the
// checkpointing runner: each checkpoint replaces the job's in-memory
// resume state and, when a durable store is configured, its on-disk copy
// — so both a resubmission and a daemon restart resume from the latest
// boundary. A store write failure is counted and tolerated (the
// in-memory copy still advances); durability degrades, the run does not
// abort.
func (s *Server) saveCheckpoint(j *job) func([]byte) error {
	return func(b []byte) error {
		cp := append([]byte(nil), b...)
		s.mu.Lock()
		j.checkpoint = cp
		s.mu.Unlock()
		if st := s.cfg.Store; st != nil {
			if err := st.Put(checkpointKey(j.id), string(cp)); err != nil {
				s.storeErrs.Add(1)
			}
		}
		return nil
	}
}

// Cancel requests cancellation of the job. A queued job is withdrawn
// (the worker skips it on dequeue); a running job has its context
// cancelled, which stops the dispatch of further sweep points — the
// sweep points already simulating finish, then the job reports
// canceled. Cancelling a terminal job is an error.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if j.status.Terminal() {
		return s.viewLocked(j), fmt.Errorf("job already %s", j.status)
	}
	if j.status == StatusQueued {
		j.status = StatusCanceled
		j.finished = s.cfg.Now()
		j.errMsg = "canceled while queued"
		s.canceled.Add(1)
		// Settle the gauge now: runJob skips withdrawn jobs before
		// touching it, so deferring to the dequeue would leave
		// sppd_jobs_queued stale until a worker happened by.
		s.queuedN.Add(-1)
	}
	j.cancel()
	return s.viewLocked(j), nil
}

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("no such job")

// Job returns a snapshot of the job.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return s.viewLocked(j), nil
}

// Jobs returns snapshots of every known job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, s.viewLocked(j))
		}
	}
	return out
}

// Result returns the rendered result of a done job.
func (s *Server) Result(id string) (string, JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", JobView{}, ErrNotFound
	}
	v := s.viewLocked(j)
	if j.status != StatusDone {
		return "", v, fmt.Errorf("job is %s", j.status)
	}
	return j.result, v, nil
}

// Shutdown drains the daemon: new submissions are refused immediately,
// queued and running jobs are allowed to finish. If ctx expires first,
// every remaining job's context is cancelled (stopping sweep-point
// dispatch) and Shutdown waits for the workers to observe it, then
// returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // safe: submissions check draining under mu
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		counters.Detach(s.sim)
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		if !j.status.Terminal() && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-drained
	counters.Detach(s.sim)
	return ctx.Err()
}

// SimCounters snapshots the daemon-lifetime PMU aggregate across every
// simulation run so far (the sppd_sim_counter_* lines of /metrics).
func (s *Server) SimCounters() counters.Snapshot {
	return s.sim.Snapshot()
}

// JobView is the wire representation of a job.
type JobView struct {
	ID          string   `json:"id"`
	Experiments []string `json:"experiments"`
	Status      string   `json:"status"`
	// Cached is true when the result came from the job table, the
	// durable store or a cluster peer rather than a fresh simulation.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Backend is the cluster identity (Config.ID / sppd -id) of the
	// daemon that owns this job, present when the daemon runs behind a
	// sppgw gateway. Paired with the X-Spp-Backend response header it
	// makes misrouted requests diagnosable from either side of the wire.
	Backend     string `json:"backend,omitempty"`
	SubmittedAt string `json:"submittedAt,omitempty"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	// Counters is the flattened PMU snapshot of this job's simulations
	// ("group.counter" → value), present once the job is done. Empty for
	// store- or peer-served jobs — they ran nothing. Attribution is exact
	// at the daemon's default Workers=1; see docs/OBSERVABILITY.md.
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s *Server) viewLocked(j *job) JobView {
	v := JobView{
		ID:          j.id,
		Experiments: append([]string{}, j.spec.Experiments...),
		Status:      string(j.status),
		Cached:      j.cached,
		Error:       j.errMsg,
		Backend:     s.cfg.ID,
	}
	if len(j.counters) > 0 {
		v.Counters = make(map[string]int64, len(j.counters))
		for k, c := range j.counters {
			v.Counters[k] = c
		}
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.SubmittedAt = stamp(j.submitted)
	v.StartedAt = stamp(j.started)
	v.FinishedAt = stamp(j.finished)
	return v
}
