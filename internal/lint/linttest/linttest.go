// Package linttest is the golden-test harness for the internal/lint
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest.
// Fixture packages live in a shadow module (internal/lint/testdata/fixmod
// declares `module spp1000` so analyzers that key on this module's type
// paths resolve against miniature stand-ins) and mark each expected
// finding with a trailing comment:
//
//	time.Sleep(d) // want `time\.Sleep`
//
// A line whose own comment is the subject of the finding (a malformed
// //simlint:allow directive) carries the expectation in a leading block
// comment instead: /* want `malformed` */ //simlint:allow x.
//
// Each quoted string is a regexp that must match exactly one diagnostic
// on that line; unexpected diagnostics and unmatched expectations both
// fail the test.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spp1000/internal/lint"
)

// want is one expectation: a regexp at a file:line, matched at most once.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture module at dir, analyzes the packages matching
// patterns with the given analyzers, and compares every diagnostic
// against the fixtures' `// want` comments.
//
//simlint:allow deadexport golden-test harness the internal/lint tests drive
func Run(t *testing.T, dir string, patterns []string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("load %s %v: %v", dir, patterns, err)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched %q", key, w.re)
			}
		}
	}
}

// collectWants parses `// want "re" ...` (and `/* want "re" ... */`) comments out of the loaded
// fixture files, keyed by "filename:line".
func collectWants(t *testing.T, pkgs []*lint.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						rest, ok = strings.CutPrefix(c.Text, "/* want ")
						rest = strings.TrimSuffix(rest, "*/")
					}
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, pat := range splitQuoted(t, pos.String(), rest) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted or backquoted strings.
func splitQuoted(t *testing.T, pos, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: malformed want expectation %q: %v", pos, s, err)
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want expectation %q: %v", pos, q, err)
		}
		out = append(out, unq)
		s = s[len(q):]
	}
}
