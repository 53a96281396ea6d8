package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricsWriterDirective marks a declaration (a /metrics handler
// function, or the variable naming the metrics it aggregates) as part of
// the service's metric vocabulary:
//
//	//simlint:metrics-writer
//	func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) { ... }
const metricsWriterDirective = "//simlint:metrics-writer"

// metricNameRE is the wire grammar of a metric name: snake_case with at
// least one underscore, no leading or trailing underscore. Format
// strings ("%d\n"), namespace prefixes ("sppd_", "sim_counter_") and
// single-word gauges ("backends") fall outside it by construction.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// metricTokenRE scans free text (test files, docs) for candidate tokens
// to filter through metricNameRE.
var metricTokenRE = regexp.MustCompile(`[a-z][a-z0-9_]*`)

// Ledger is the metrics double-entry check. The /metrics text format is
// stringly typed end to end: the service prints "sppd_jobs_done_total 7",
// the load harness greps it back out and asserts client-side equations
// against it, and docs/SERVICE.md tells operators what the name means.
// Nothing but grep connects the three, so a renamed or newly added
// counter silently drops out of reconciliation — the load gate keeps
// passing because it never hears about the metric at all. The ledger
// closes that loop both ways:
//
//   - every metric name emitted by an annotated //simlint:metrics-writer
//     declaration must appear in the reconcile surface (the
//     internal/load sources and the metrics tests of load and the
//     emitters) AND in the docs (docs/*.md or README.md);
//   - every metric name the reconcile package references must be emitted
//     by some annotated writer (a reconcile equation over a metric
//     nobody prints vacuously passes).
//
// Emitted names are whole string literals inside annotated declarations
// that match the metric grammar; names are normalized by stripping the
// wire namespaces in MetricsPrefixes, so "jobs_done_total" in the
// service matches "sppd_jobs_done_total" in a test. The cross-checks
// only run when at least one annotated writer was found; each
// MetricsEmitterPackages package with no annotation at all is a finding
// of its own.
var Ledger = &Analyzer{
	Name:      "ledger",
	Doc:       "cross-check every metric name emitted by annotated /metrics writers against the reconcile equations and the docs, and vice versa",
	RunModule: runLedger,
}

// litName is one grammar-matching string literal with its position.
type litName struct {
	name string
	pos  token.Pos
}

func runLedger(mp *ModulePass) error {
	emitters := make(map[string]*Package) // rel path -> loaded emitter package
	var reconcile *Package
	for _, pkg := range mp.Pkgs {
		rel, ok := pkg.RelPath()
		if !ok {
			continue
		}
		for _, e := range MetricsEmitterPackages {
			if rel == e {
				emitters[rel] = pkg
			}
		}
		if rel == MetricsReconcilePackage {
			reconcile = pkg
		}
	}
	if len(emitters) == 0 {
		return nil // ledger surface not loaded (partial lint run)
	}

	// Collect emitted names from annotated declarations, reporting
	// emitter packages with no annotation at all.
	emitted := make(map[string]litName)
	relOrder := make([]string, 0, len(emitters))
	for rel := range emitters {
		relOrder = append(relOrder, rel)
	}
	sort.Strings(relOrder)
	sawAnnotation := false
	for _, rel := range relOrder {
		pkg := emitters[rel]
		names, annotated := emittedNames(pkg)
		if !annotated {
			mp.Reportf(pkg.Files[0].Package,
				"package %s emits /metrics but no declaration carries %s: annotate the metrics handler so the ledger can see its vocabulary", rel, metricsWriterDirective)
			continue
		}
		sawAnnotation = true
		for _, ln := range names {
			if _, dup := emitted[ln.name]; !dup {
				emitted[ln.name] = ln
			}
		}
	}
	if !sawAnnotation {
		return nil
	}

	// The reconcile surface: load-package sources, plus the *_test.go
	// files of the load package and the emitters (metrics round-trip
	// tests count as reconciliation — they assert the name exists on the
	// wire). The docs surface: docs/*.md and README.md of the module.
	root := emitters[relOrder[0]].ModuleRoot()
	surface := make(map[string]bool)
	if reconcile != nil {
		addDirSurface(surface, reconcile.Dir, func(name string) bool { return strings.HasSuffix(name, ".go") })
	}
	for _, rel := range relOrder {
		addDirSurface(surface, emitters[rel].Dir, func(name string) bool { return strings.HasSuffix(name, "_test.go") })
	}
	docs := make(map[string]bool)
	addDirSurface(docs, filepath.Join(root, "docs"), func(name string) bool { return strings.HasSuffix(name, ".md") })
	if b, err := os.ReadFile(filepath.Join(root, "README.md")); err == nil {
		addTextSurface(docs, string(b))
	}

	// Direction 1: emitted but unreconciled / undocumented.
	names := make([]string, 0, len(emitted))
	for name := range emitted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ln := emitted[name]
		if !surface[name] {
			mp.Reportf(ln.pos,
				"metric %s is emitted but absent from the reconcile surface: add a reconcile equation in %s or assert it in a metrics test", name, MetricsReconcilePackage)
		}
		if !docs[name] {
			mp.Reportf(ln.pos,
				"metric %s is emitted but not mentioned in docs/*.md or README.md", name)
		}
	}

	// Direction 2: reconciled but never emitted. Whole-literal names in
	// the reconcile package's (non-test) sources must come off the wire.
	if reconcile != nil {
		for _, ln := range literalNames(reconcile) {
			name := stripMetricPrefix(ln.name)
			if _, ok := emitted[name]; !ok {
				mp.Reportf(ln.pos,
					"reconcile references metric %s that no annotated /metrics writer emits: the equation can never bind", name)
			}
		}
	}
	return nil
}

// emittedNames collects whole-literal metric names from the package's
// //simlint:metrics-writer declarations, and whether any declaration is
// annotated at all.
func emittedNames(pkg *Package) ([]litName, bool) {
	var names []litName
	annotated := false
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			default:
				continue
			}
			if !hasDirective(doc, metricsWriterDirective) {
				continue
			}
			annotated = true
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil || !metricNameRE.MatchString(s) {
					return true
				}
				names = append(names, litName{name: stripMetricPrefix(s), pos: lit.Pos()})
				return true
			})
		}
	}
	return names, annotated
}

// literalNames collects whole-literal metric names anywhere in the
// package's loaded (non-test) files.
func literalNames(pkg *Package) []litName {
	var names []litName
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !metricNameRE.MatchString(s) {
				return true
			}
			names = append(names, litName{name: s, pos: lit.Pos()})
			return true
		})
	}
	return names
}

// hasDirective reports whether the comment group contains the directive
// on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// addDirSurface tokenizes every file in dir whose name passes keep into
// the surface set.
func addDirSurface(surface map[string]bool, dir string, keep func(string) bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !keep(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		addTextSurface(surface, string(b))
	}
}

// addTextSurface adds every grammar-matching token of text — and every
// valid prefix-stripped form — to the surface set. All prefixes are
// tried, not just the longest match: "sppgw_backend_evictions_total" is
// both the backend-prefixed "evictions_total" and the gateway's own
// "backend_evictions_total", and the surface must cover whichever the
// writer meant.
func addTextSurface(surface map[string]bool, text string) {
	for _, tok := range metricTokenRE.FindAllString(text, -1) {
		if !metricNameRE.MatchString(tok) {
			continue
		}
		surface[tok] = true
		for _, p := range MetricsPrefixes {
			if rest, ok := strings.CutPrefix(tok, p); ok && metricNameRE.MatchString(rest) {
				surface[rest] = true
			}
		}
	}
}

// stripMetricPrefix removes the first matching wire namespace from name
// (longest prefixes are listed first in MetricsPrefixes).
func stripMetricPrefix(name string) string {
	for _, p := range MetricsPrefixes {
		if rest, ok := strings.CutPrefix(name, p); ok && metricNameRE.MatchString(rest) {
			return rest
		}
	}
	return name
}
