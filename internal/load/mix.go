package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"spp1000/internal/rng"
)

// OpClass names one kind of operation in a workload mix. The classes
// mirror the traffic a production sppd actually sees: hot-key resubmits
// that should be answered by the job table or cache, cold sweeps that
// must simulate, cancellations, deadline-doomed jobs, and garbage that
// must bounce with 400.
type OpClass int

// The workload classes, in mix-weight order.
const (
	// OpHot resubmits one of a small set of hot specs, chosen
	// zipfian-skewed: after the first completion these must coalesce at
	// the job table (dedup), never re-simulated.
	OpHot OpClass = iota
	// OpCold submits a never-seen spec and waits for it to finish — the
	// closed-loop simulate path.
	OpCold
	// OpCancel submits a never-seen spec and immediately cancels it.
	OpCancel
	// OpTimeout submits a never-seen spec with a deliberately impossible
	// execution deadline; the job must land in the terminal status
	// "timeout".
	OpTimeout
	// OpMalformed posts a body sppd cannot parse; the daemon must answer
	// 400 and its job books must not move.
	OpMalformed

	numClasses int = iota
)

// String names the class as it appears in mix strings and reports.
func (c OpClass) String() string {
	switch c {
	case OpHot:
		return "hot"
	case OpCold:
		return "cold"
	case OpCancel:
		return "cancel"
	case OpTimeout:
		return "timeout"
	case OpMalformed:
		return "malformed"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every OpClass in declaration order, for ranging in a
// fixed order (maps over classes would randomize report layout).
func Classes() []OpClass {
	out := make([]OpClass, numClasses)
	for i := range out {
		out[i] = OpClass(i)
	}
	return out
}

// Mix holds the relative weights of the operation classes. Weights are
// parts of the whole, not percentages: {4,3,1,1,1} and {40,30,10,10,10}
// describe the same mix.
type Mix struct {
	Hot       int `json:"hot"`
	Cold      int `json:"cold"`
	Cancel    int `json:"cancel"`
	Timeout   int `json:"timeout"`
	Malformed int `json:"malformed"`
}

// DefaultMix is the bounded-profile mix: mostly hot-key resubmits and
// cold sweeps, seasoned with cancels, doomed deadlines, and garbage.
func DefaultMix() Mix {
	return Mix{Hot: 40, Cold: 30, Cancel: 10, Timeout: 10, Malformed: 10}
}

// ParseMix parses "hot=40,cold=30,cancel=10,timeout=10,malformed=10".
// Omitted classes get weight 0; at least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	byName := map[string]*int{}
	var m Mix
	for c, p := range map[string]*int{
		"hot": &m.Hot, "cold": &m.Cold, "cancel": &m.Cancel,
		"timeout": &m.Timeout, "malformed": &m.Malformed,
	} {
		byName[c] = p
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("mix: %q is not name=weight", part)
		}
		p, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return Mix{}, fmt.Errorf("mix: unknown class %q (have hot, cold, cancel, timeout, malformed)", name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("mix: weight %q must be a non-negative integer", val)
		}
		*p = w
	}
	if m.Total() == 0 {
		return Mix{}, fmt.Errorf("mix: every weight is zero in %q", s)
	}
	return m, nil
}

// weights returns the per-class weights indexed by OpClass.
func (m Mix) weights() [numClasses]int {
	return [numClasses]int{m.Hot, m.Cold, m.Cancel, m.Timeout, m.Malformed}
}

// Total is the sum of the weights (the mix period: over any window of
// Total consecutive ops the generator emits each class exactly its
// weight's worth of times).
func (m Mix) Total() int {
	w := m.weights()
	total := 0
	for _, x := range w {
		total += x
	}
	return total
}

// Op is one generated operation. Class and Key fully determine the
// submit body (hot ops with equal Key resubmit the same spec; cold,
// cancel, and timeout Keys are unique per op so their content addresses
// never collide with anything else in the run); Seq is the global
// emission index.
type Op struct {
	Class OpClass
	// Seq is the op's position in the generated sequence, 0-based.
	Seq int
	// Key selects the spec: for OpHot it is the hot-set index in
	// [0, HotKeys); for OpCold/OpCancel/OpTimeout it is a per-class
	// unique counter. Unused (0) for OpMalformed.
	Key int
}

// Generator emits the deterministic op sequence for one load run. The
// class schedule is smooth weighted round-robin — not sampled — so the
// realized mix proportions are exact (each class appears exactly
// weight-many times in every Total()-length window), while the hot-key
// choice inside OpHot ops is zipfian, drawn from the same deterministic
// internal/rng stream the simulated workloads use. Two generators built
// with equal parameters emit identical sequences.
type Generator struct {
	mix     Mix
	weights [numClasses]int
	total   int
	current [numClasses]int // smooth-WRR running balances

	hotKeys int
	zipfCum []float64 // cumulative zipf mass over the hot set
	r       *rng.RNG

	seq  int
	uniq [numClasses]int
}

// NewGenerator builds a generator. hotKeys sizes the hot spec set
// (min 1); zipfS is the zipf exponent (1.0–1.3 are web-like skews; 0
// makes the hot choice uniform); seed pins the hot-key stream.
func NewGenerator(mix Mix, hotKeys int, zipfS float64, seed uint64) (*Generator, error) {
	if mix.Total() <= 0 {
		return nil, fmt.Errorf("load: mix has no positive weights")
	}
	if hotKeys < 1 {
		return nil, fmt.Errorf("load: hotKeys must be >= 1 (got %d)", hotKeys)
	}
	if zipfS < 0 {
		return nil, fmt.Errorf("load: zipf exponent must be >= 0 (got %g)", zipfS)
	}
	g := &Generator{
		mix:     mix,
		weights: mix.weights(),
		total:   mix.Total(),
		hotKeys: hotKeys,
		r:       rng.New(seed),
	}
	g.zipfCum = make([]float64, hotKeys)
	sum := 0.0
	for k := 0; k < hotKeys; k++ {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		g.zipfCum[k] = sum
	}
	for k := range g.zipfCum {
		g.zipfCum[k] /= sum
	}
	return g, nil
}

// Next emits the next op of the sequence.
func (g *Generator) Next() Op {
	// Smooth weighted round-robin (the nginx upstream algorithm): raise
	// every class by its weight, emit the highest balance, then charge
	// it the full period. Over any window of Total ops each class is
	// emitted exactly weight-many times, so the realized mix is exact —
	// a sampled schedule would only converge in expectation.
	best := -1
	for i := 0; i < numClasses; i++ {
		g.current[i] += g.weights[i]
		if g.weights[i] > 0 && (best < 0 || g.current[i] > g.current[best]) {
			best = i
		}
	}
	g.current[best] -= g.total

	op := Op{Class: OpClass(best), Seq: g.seq}
	g.seq++
	switch op.Class {
	case OpHot:
		op.Key = g.zipfPick()
	case OpMalformed:
		// Key stays 0: malformed bodies are vocabulary-free garbage.
	default:
		op.Key = g.uniq[best]
		g.uniq[best]++
	}
	return op
}

// zipfPick draws a hot-set index with zipfian skew (rank 1 most
// popular) by inverse-CDF lookup on the deterministic rng stream.
func (g *Generator) zipfPick() int {
	u := g.r.Float64()
	return sort.SearchFloat64s(g.zipfCum, u)
}
