// Command doccheck fails the build when an exported symbol of the
// core packages lacks a doc comment — the `make doc` gate that keeps
// the public simulator API documented as it grows.
//
// Usage:
//
//	doccheck [package-dir ...]
//
// With no arguments it checks the packages whose exported APIs the
// repository documents as stable: internal/sim, internal/trace,
// internal/runner, internal/counters. Every undocumented exported
// function, method (on an exported type), type, var, or const prints
// as file:line: symbol, and the exit status is 1. A doc comment on a
// parenthesized var/const/type block covers every symbol in the block.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultPackages are the documented-API packages checked when no
// arguments are given (see docs/OBSERVABILITY.md).
var defaultPackages = []string{
	"internal/sim",
	"internal/trace",
	"internal/runner",
	"internal/counters",
	"internal/lint",
	"internal/lint/linttest",
	"internal/store",
	"internal/faultinject",
	"internal/parsim",
	"internal/gateway",
	"internal/load",
	"internal/snapshot",
}

// requiredDocs maps packages to the narrative docs file that must
// exist and mention them by import path — so the methodology docs
// cannot silently rot away from the code they describe. Checked only
// in the no-argument (full-gate) mode.
var requiredDocs = map[string]string{
	"internal/load":     "docs/BENCHMARKS.md",
	"internal/gateway":  "docs/SERVICE.md",
	"internal/lint":     "docs/LINT.md",
	"internal/snapshot": "DESIGN.md",
}

// requiredMentions maps a docs file to terms it must contain — the
// analyzer names and driver modes whose contracts live in that file.
// A term disappearing from the doc means the surface was renamed or
// the doc rotted; either way the gate fails until they agree again.
// Checked only in the no-argument (full-gate) mode.
var requiredMentions = map[string][]string{
	"docs/LINT.md": {
		"allocfree", "lockorder", "ledger", "deadexport",
		"//simlint:hotpath", "//simlint:metrics-writer",
		"-json", "-annotate",
	},
	"docs/SERVICE.md": {
		"checkpointed", "sppd_jobs_checkpointed_total",
		"sppgw_peer_probe_retries_total", "-checkpoint", "-resume",
	},
}

func main() {
	dirs := os.Args[1:]
	fullGate := len(dirs) == 0
	if fullGate {
		dirs = defaultPackages
	}
	var missing []string
	for _, dir := range dirs {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if fullGate {
		missing = append(missing, checkDocs()...)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, m := range missing {
			fmt.Println(m)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d exported symbol(s) missing doc comments\n", len(missing))
		os.Exit(1)
	}
}

// checkDocs verifies every requiredDocs entry — the docs file exists
// and names the package it is on the hook for — and every
// requiredMentions term.
func checkDocs() []string {
	var missing []string
	for pkg, doc := range requiredDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			missing = append(missing, fmt.Sprintf("%s: required by %s but unreadable: %v", doc, pkg, err))
			continue
		}
		if !strings.Contains(string(data), pkg) {
			missing = append(missing, fmt.Sprintf("%s: must mention %s (it documents that package)", doc, pkg))
		}
	}
	for doc, terms := range requiredMentions {
		data, err := os.ReadFile(doc)
		if err != nil {
			missing = append(missing, fmt.Sprintf("%s: required but unreadable: %v", doc, err))
			continue
		}
		for _, term := range terms {
			if !strings.Contains(string(data), term) {
				missing = append(missing, fmt.Sprintf("%s: must mention %q (documented surface)", doc, term))
			}
		}
	}
	return missing
}

// checkDir parses every non-test Go file of one package directory and
// returns "file:line: symbol" for each undocumented exported symbol.
func checkDir(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var missing []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		missing = append(missing, checkFile(fset, f)...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return missing, nil
}

func checkFile(fset *token.FileSet, f *ast.File) []string {
	var missing []string
	report := func(pos token.Pos, symbol string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, symbol))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if recv, ok := receiverType(d); ok {
				report(d.Pos(), recv+"."+d.Name.Name)
			} else if d.Recv == nil {
				report(d.Pos(), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
						report(sp.Pos(), sp.Name.Name)
					}
				case *ast.ValueSpec:
					// The block doc or the spec's own doc/trailing
					// comment documents every name it declares.
					if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, name := range sp.Names {
						if name.IsExported() {
							report(name.Pos(), name.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// receiverType reports the method receiver's base type name and whether
// the method should be checked (receiver type exported).
func receiverType(d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "", false
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name, tt.IsExported()
		default:
			return "", false
		}
	}
}
