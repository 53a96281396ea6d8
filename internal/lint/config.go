package lint

import "strings"

// ModulePath is the import path of this module; the analyzers key their
// type matching (sim.Cycles, counters handles) and the package
// classification on it.
const ModulePath = "spp1000"

// Class partitions the module's packages by which invariants apply.
type Class int

const (
	// ClassExempt packages (cmd/*, examples/*, and anything outside the
	// classified lists) are host tooling: no analyzer applies.
	ClassExempt Class = iota
	// ClassHost packages run on the host side of the engine (worker
	// pools, the daemon, caches). They may spawn goroutines and iterate
	// maps, but wall-clock reads must be annotated and contexts must
	// flow (determinism's wall-clock check and ctxflow apply).
	ClassHost
	// ClassSimCore packages execute inside, or render the output of, the
	// deterministic simulation. Every analyzer applies in full.
	ClassSimCore
	// ClassPDES packages coordinate concurrent execution of sim-core
	// kernels (the parallel-discrete-event layer). Goroutines and
	// channels are their reason to exist, so the no-goroutine rule does
	// not apply — but their scheduling decisions feed simulator output,
	// so the other determinism invariants (no wall-clock reads, no
	// math/rand, no map iteration) bind exactly as in sim-core.
	ClassPDES
)

// String names the class for diagnostics and docs.
func (c Class) String() string {
	switch c {
	case ClassHost:
		return "host"
	case ClassSimCore:
		return "sim-core"
	case ClassPDES:
		return "pdes"
	default:
		return "exempt"
	}
}

// SimCorePackages lists the module-relative import paths (each covering
// its subtree) classified ClassSimCore: the packages whose execution or
// output must be bit-deterministic because the paper's cycle counts and
// the serial-vs-parallel byte-identical guarantee depend on them.
var SimCorePackages = []string{
	"internal/sim",
	"internal/machine",
	"internal/cache",
	"internal/directory",
	"internal/sci",
	"internal/ring",
	"internal/xbar",
	"internal/memsys",
	"internal/threads",
	"internal/apps",
	"internal/pvm",
	"internal/rng",
	"internal/topology",
	"internal/perfmodel",
	"internal/fft",
	"internal/morton",
	"internal/c90",
	"internal/cxpa",
	"internal/directives",
	"internal/stats",
	"internal/counters",
	"internal/experiments",
	"internal/ablation",
	"internal/microbench",
	"internal/trace",
	"internal/snapshot",
}

// PDESPackages lists the module-relative import paths (each covering
// its subtree) classified ClassPDES: the coordinator layer that runs
// sim-core kernels on concurrent goroutines while keeping their output
// byte-identical.
var PDESPackages = []string{
	"internal/parsim",
}

// HostPackages lists the module-relative import paths (each covering its
// subtree) classified ClassHost: legitimately concurrent, wall-clock
// adjacent host machinery.
var HostPackages = []string{
	"internal/runner",
	"internal/service",
	"internal/resultcache",
	"internal/store",
	"internal/faultinject",
	"internal/gateway",
	"internal/load",
	"internal/lint",
}

// SimIndependentPackages lists the module-relative import paths (each
// covering its subtree) that the deps analyzer keeps free of sim-core
// imports: durable/host infrastructure that must never depend on the
// simulation kernel. They are also ClassHost (listed above), so the
// host-class invariants apply on top of the import ban.
var SimIndependentPackages = []string{
	"internal/store",
	"internal/faultinject",
	"internal/gateway",
	"internal/load",
}

// SimPureLeaves lists sim-core-classified packages that are pure
// computational leaves — deterministic functions of their arguments,
// importing nothing from the module — which sim-independent packages
// may import without breaking the one-directional ban. Today that is
// only internal/rng: the load harness reuses the simulator's
// deterministic generator for replayable workloads, which is safe
// precisely because rng has no edges back into the kernel. The deps
// analyzer enforces the purity claim itself (a leaf growing a module
// import is reported at the leaf).
var SimPureLeaves = []string{
	"internal/rng",
}

// RequiredHotpaths maps module-relative package paths to the functions
// (named "Type.Method" for methods on Type's base type, or a bare
// function name) that MUST carry a //simlint:hotpath annotation: the
// measurement-critical paths whose zero-allocation discipline the
// paper's cycle-accurate numbers rest on. The allocfree analyzer fails
// if any listed function exists without the annotation (or has been
// renamed away), so the escape gate cannot be turned off by deleting
// one comment.
var RequiredHotpaths = map[string][]string{
	// The event-kernel inner loop: pop, clock advance, direct Proc
	// resume or callback dispatch — 0 allocs/event since PR 1.
	"internal/sim": {
		"Kernel.Run", "Kernel.RunUntil", "Kernel.atProc", "Kernel.resumeProc",
		"eventHeap.push", "eventHeap.pop", "Proc.Delay",
	},
	// The counters-disabled path: a nil-receiver branch and nothing
	// else (PR 3's 0-alloc contract).
	"internal/counters": {"Counter.Inc", "Counter.Add", "Histogram.Observe"},
	// The PDES stripe worker body: runs once per partition per window.
	"internal/parsim": {"Coordinator.runPart"},
	// The daemon's cache hot path: a hash lookup answering repeat
	// submissions.
	"internal/resultcache": {"Cache.Lookup"},
	// The N-body tree code's force traversal and insert descent: the
	// paper's §5.3 inner loops, and the bulk of a paper-scale suite's
	// host time.
	"internal/apps/nbody": {"Tree.Force", "Tree.insert"},
}

// MetricsEmitterPackages lists the module-relative package paths whose
// /metrics writers define the service's metric vocabulary. The ledger
// analyzer requires each to carry at least one //simlint:metrics-writer
// annotation and cross-checks every metric name those writers emit.
var MetricsEmitterPackages = []string{
	"internal/service",
	"internal/gateway",
}

// MetricsReconcilePackage is the module-relative path of the load
// harness holding the client-vs-server reconcile equations — the other
// side of the metrics ledger.
const MetricsReconcilePackage = "internal/load"

// MetricsPrefixes are the wire-format namespaces stripped when matching
// metric names across the ledger (the service emits sppd_*, the gateway
// re-emits cluster sums as sppgw_cluster_* and its own counters as
// sppgw_*).
var MetricsPrefixes = []string{"sppgw_cluster_", "sppgw_backend_", "sppgw_", "sppd_"}

// SimPureLeaf reports whether the full import path is one of the
// SimPureLeaves (or in their subtrees).
func SimPureLeaf(pkgPath string) bool {
	rel, ok := strings.CutPrefix(pkgPath, ModulePath+"/")
	if !ok {
		return false
	}
	for _, p := range SimPureLeaves {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// SimIndependent reports whether the full import path is one of the
// SimIndependentPackages (or in their subtrees).
func SimIndependent(pkgPath string) bool {
	rel, ok := strings.CutPrefix(pkgPath, ModulePath+"/")
	if !ok {
		return false
	}
	for _, p := range SimIndependentPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Classify maps a full import path to its Class. Packages outside the
// module, under cmd/ or examples/, or in neither list are ClassExempt.
func Classify(pkgPath string) Class {
	rel, ok := strings.CutPrefix(pkgPath, ModulePath+"/")
	if !ok {
		return ClassExempt
	}
	if strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") {
		return ClassExempt
	}
	for _, p := range SimCorePackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return ClassSimCore
		}
	}
	for _, p := range PDESPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return ClassPDES
		}
	}
	for _, p := range HostPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return ClassHost
		}
	}
	return ClassExempt
}
