// Command perfbench is the repository benchmark. It runs one workload
// (paper, bigsim, or service) through the simulator's Go APIs for a
// fixed host-time window, checks every output against pinned digests,
// prints each metric by name with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run also makes one traced pass (spans
// around each layer call, PMU counters attached), runs the layer probes,
// writes a Chrome trace-event file, and the JSON carries the per-layer
// metrics. See README.md for the workloads and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"spp1000/internal/counters"
	"spp1000/internal/parsim"
	"spp1000/internal/runner"
	"spp1000/internal/sim"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	dir       string            // scratch space for stores and trace files
	work      string            // this run's own directory under dir, removed at exit
	pins      map[string]string // expected outputs; nil = pinsFor(workload, seed)
	setups    int               // set-up repetitions (the median is reported)
	minPasses int               // passes measured even past the window
}

// tally counts the operations of one pass.
type tally struct {
	ops, failed int // attempted; failed
	sims        int // operations that needed a fresh simulation
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.sims += o.sims
}

// bench is one set-up instance of a workload.
type bench interface {
	// pass runs one unit of the workload, recording spans under parent
	// when tr is non-nil, and checks every output it produces.
	pass(tr *tracer, parent int) (tally, error)
	// reconcile checks the system's own books against the passes run
	// since the previous call and returns the fresh simulations the
	// system reports for them.
	reconcile(t tally) (fresh int, err error)
	// summary adds workload-specific lines to the report.
	summary(r *report)
	close() error
}

var workloads = map[string]func(cfg config, chk *checker) (bench, error){
	"paper":   setupPaper,
	"bigsim":  setupBigsim,
	"service": setupService,
}

// inputs makes a workload's inputs in cfg.work, once per run and before
// the timed set-ups: making them is not the system's set-up.
var inputs = map[string]func(cfg config) error{
	"service": serviceInputs,
}

// hostWidth is the host parallelism the benchmark uses for the runner
// pool, the PDES workers, and service client connections.
func hostWidth() int { return min(2, runtime.NumCPU()) }

func main() {
	cfg := config{setups: 15, minPasses: 3}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper, bigsim, or service")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (1 is the default seed, whose outputs are pinned)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement window in host seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, spans, and probes")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and trace files")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints each metric as it is added and keeps it for the JSON.
type report struct {
	w io.Writer
	m map[string]metricValue
}

func (r *report) add(name string, v float64, unit string) {
	fmt.Fprintf(r.w, "metric %-28s %14.6g %s\n", name, v, unit)
	r.m[name] = metricValue{v, unit}
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// pick selects the named metrics for the JSON line; a missing one is a
// benchmark bug.
func (r *report) pick(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := r.m[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if v.Unit != s.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, v.Unit, s.unit)
		}
		out[s.name] = v
	}
	return out, nil
}

// run sets the workload up, measures it for the window, and, when
// traced, makes the traced pass and runs the probes.
func run(cfg config, w io.Writer) (result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want paper, bigsim, or service)", cfg.workload)
	}
	if cfg.pins == nil {
		cfg.pins = pinsFor(cfg.workload, cfg.seed)
	}
	chk := newChecker(cfg.pins)
	runner.SetWorkers(hostWidth())
	parsim.SetWorkers(hostWidth())
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	if in := inputs[cfg.workload]; in != nil {
		if err := in(cfg); err != nil {
			return result{}, fmt.Errorf("inputs: %w", err)
		}
	}
	rep := &report{w: w, m: make(map[string]metricValue)}
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%t host_width=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hostWidth())

	// Set-up, repeated; every instance but the last is closed.
	var b bench
	var setupTimes []float64
	for i := 0; i < max(1, cfg.setups); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = setup(cfg, chk); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	closeBench := sync.OnceValue(b.close)
	defer closeBench()

	// The measured window, tracing off.
	var total tally
	var walls, peaks []float64 // per pass: host seconds, peak live heap in MB
	ev0 := sim.TotalEvents()
	start := time.Now()
	for len(walls) < cfg.minPasses || time.Since(start).Seconds() < cfg.seconds {
		// Each pass starts from a collected heap returned to the OS, as
		// in a fresh process, not from what the previous pass left.
		debug.FreeOSMemory()
		e0, c0 := sim.TotalEvents(), sim.TotalCycles()
		mem := watchGC()
		t0 := time.Now()
		t, err := b.pass(nil, 0)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		peaks = append(peaks, float64(mem.stop())/(1<<20))
		total.add(t)
		if err := checkSim(chk, sim.TotalEvents()-e0, sim.TotalCycles()-c0); err != nil {
			return result{}, err
		}
	}
	window := time.Since(start).Seconds()
	events := sim.TotalEvents() - ev0
	fresh, err := b.reconcile(total)
	if err != nil {
		return result{}, err
	}

	rep.note("passes=%d window_s=%.3f ops=%d failed=%d fresh_sims=%d", len(walls), window, total.ops, total.failed, fresh)
	rep.note("setups_s %.4f", setupTimes)
	rep.note("pass_s %.4f", walls)
	rep.note("pass_peak_mb %.2f", peaks)
	rep.add("setup_s", median(setupTimes), "s")
	rep.add("wall_s", median(walls), "s")
	rep.add("sim_events_per_s", float64(events)/float64(len(walls))/median(walls), "1/s")
	// p90, not the median: paper's per-pass peak is bimodal (662 or
	// 800 MB, by where GC cycles fall) and the higher mode is the peak.
	rep.add("mem_peak_mb", percentile(peaks, 0.9), "MB")
	rep.add("fail_ratio", float64(total.failed)/float64(max(1, total.ops)), "ratio")
	b.summary(rep)
	chk.report(rep)

	res := result{Correct: true, Attempted: total.ops, Failed: total.failed}
	specs := endToEnd
	if cfg.trace {
		tr, traced, err := tracedPass(cfg, chk, b, rep, median(walls))
		if err != nil {
			return result{}, fmt.Errorf("traced pass: %w", err)
		}
		res.Attempted += traced.ops
		res.Failed += traced.failed
		// The probes run with no workload alive: the service daemon
		// attaches a counter collector for its lifetime.
		if err := closeBench(); err != nil {
			return result{}, err
		}
		if err := runProbes(cfg, rep); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
		if err := writeTrace(cfg, tr, rep); err != nil {
			return result{}, err
		}
		specs = perLayer
	}
	if res.Metrics, err = rep.pick(specs); err != nil {
		return result{}, err
	}
	return res, closeBench()
}

// tracedPass makes one pass with spans and PMU counters on, and reports
// the per-layer counts, runtime costs, and tracing overhead.
func tracedPass(cfg config, chk *checker, b bench, rep *report, untracedWall float64) (*tracer, tally, error) {
	tr := newTracer()
	tr.nameLane(0, cfg.workload)
	col := counters.NewCollector()
	debug.FreeOSMemory() // as before every untraced pass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	ev0, cy0 := sim.TotalEvents(), sim.TotalCycles()

	counters.Attach(col)
	t0 := time.Now()
	var t tally
	err := tr.do(cfg.workload+".pass", 0, 0, 0, func(id int) error {
		var err error
		t, err = b.pass(tr, id)
		return err
	})
	wall := time.Since(t0).Seconds()
	counters.Detach(col)
	if err != nil {
		return nil, t, err
	}
	events, cycles := sim.TotalEvents()-ev0, sim.TotalCycles()-cy0
	gc := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	fresh, err := b.reconcile(t)
	if err != nil {
		return nil, t, err
	}
	if err := checkSim(chk, events, cycles); err != nil {
		return nil, t, err
	}

	// Every pass, traced or not, runs the same way in this process, so
	// the difference is the cost of the spans and counters.
	rep.note("traced pass: wall_s=%.4f untraced_median_s=%.4f", wall, untracedWall)
	rep.add("trace.overhead_s", wall-untracedWall, "s")
	rep.add("runtime.gc_cpu_s", gc, "s")
	rep.add("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	addCounts(rep, col.Snapshot(), events, cycles)
	rep.add("work.useful_ratio", float64(fresh)/float64(max(1, t.sims)), "ratio")
	rep.note("work.useful_ratio base: %d fresh simulations for %d operations that needed one", fresh, t.sims)
	for _, s := range tr.totals() {
		ms := float64(s.total.Microseconds()) / 1e3
		rep.note("span %-28s n=%-5d total_ms=%.3f mean_ms=%.3f", s.name, s.n, ms, ms/float64(s.n))
	}
	return tr, t, nil
}

// writeTrace writes the spans, with every reported metric as otherData,
// as a Chrome trace-event file in the scratch directory.
func writeTrace(cfg config, tr *tracer, rep *report) error {
	other := make(map[string]string, len(rep.m))
	for name, v := range rep.m {
		other[name] = fmt.Sprintf("%g %s", v.Value, v.Unit)
	}
	data, err := tr.chrome("perfbench "+cfg.workload, other)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	rep.note("trace: %s", path)
	return nil
}

// addCounts reports the deterministic PMU and kernel counts of the
// traced pass.
func addCounts(rep *report, s counters.Snapshot, events, cycles int64) {
	rep.add("sim.events", float64(events), "count")
	rep.add("sim.cycles", float64(cycles), "count")
	acc, hits := s.Counter("mem", "accesses"), s.Counter("mem", "hits")
	rep.add("mem.accesses", float64(acc), "count")
	rep.add("mem.hits", float64(hits), "count")
	rep.add("mem.local_misses", float64(s.Counter("mem", "local_misses")), "count")
	rep.add("mem.hypernode_misses", float64(s.Counter("mem", "hypernode_misses")), "count")
	rep.add("mem.global_misses", float64(s.Counter("mem", "global_misses")), "count")
	rep.add("mem.hit_ratio", float64(hits)/float64(max(1, acc)), "ratio")
	rep.note("mem.hit_ratio base: %d hits of %d accesses", hits, acc)
	rep.add("threads.forks", float64(s.Counter("threads", "forks")), "count")
	rep.add("threads.barrier_episodes", float64(s.Counter("threads", "barrier_episodes")), "count")
	var packets int64
	for _, g := range s.Groups {
		if g.Name != "ring" {
			continue
		}
		for _, c := range g.Counters {
			if filepath.Ext(c.Name) == ".packets" {
				packets += c.Value
			}
		}
	}
	rep.add("ring.packets", float64(packets), "count")
}

// gcWatch records the largest live heap any GC cycle marks while it
// runs: the finalizer of a sentinel object runs once per cycle, samples
// the cycle's live heap, and re-arms itself with a new sentinel.
type gcWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ [64]byte }

func watchGC() *gcWatch {
	w := &gcWatch{}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		w.sample()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

// sample folds the live heap of the latest GC cycle into the peak.
func (w *gcWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak live heap in bytes.
func (w *gcWatch) stop() uint64 {
	w.stopped.Store(true)
	w.sample()
	return w.peak.Load()
}

// gcCPUSeconds is the process's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// checkSim checks a pass's simulated event and cycle totals: each pass
// of a workload simulates the same thing, so they repeat exactly.
func checkSim(chk *checker, events, cycles int64) error {
	if err := chk.check("sim.events", fmt.Sprint(events)); err != nil {
		return err
	}
	return chk.check("sim.cycles", fmt.Sprint(cycles))
}

// digest is the hex SHA-256 of an output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
