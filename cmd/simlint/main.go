// Command simlint runs the repo's invariant analyzers (internal/lint)
// over the module: determinism, simtime, counterhandle, ctxflow, deps,
// allocfree, lockorder, ledger, and deadexport.
// It is the multichecker `make lint` and `make verify` invoke after
// `go vet`.
//
// Usage:
//
//	simlint [-C dir] [-json] [package-pattern ...]
//	simlint -annotate < findings.json
//
// With no patterns it checks ./... of the module at -C (default the
// current directory). Every finding prints as
//
//	file:line:col: message (analyzer)
//
// or, with -json, as an array of {"file","line","col","analyzer",
// "message"} objects (see docs/LINT.md for the schema). The exit status
// is 1 when any finding survives the //simlint:allow suppressions, 2 on
// load failure, 0 on a clean tree.
//
// -annotate is the CI half of the pipeline: it reads a -json array on
// stdin, re-emits each finding as a GitHub Actions workflow command
// (::error file=...,line=...), and exits 1 if the array was non-empty.
// Splitting the run from the annotation keeps the pipeline exit status
// honest without depending on the shell's pipefail semantics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spp1000/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module directory to lint")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	annotate := flag.Bool("annotate", false, "read a -json array on stdin and emit GitHub annotations; exit 1 if non-empty")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-C dir] [-json] [package-pattern ...]\n       simlint -annotate < findings.json\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *annotate {
		os.Exit(runAnnotate())
	}

	pkgs, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd()
	for i := range diags {
		diags[i].Pos.Filename = shorten(wd, diags[i].Pos.Filename)
	}
	if *jsonOut {
		if err := lint.EncodeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// shorten rewrites an absolute filename relative to the working
// directory when that makes it shorter — friendlier text output and
// repo-relative paths for annotations.
func shorten(wd, filename string) string {
	if wd == "" {
		return filename
	}
	if rel, err := filepath.Rel(wd, filename); err == nil && len(rel) < len(filename) {
		return rel
	}
	return filename
}

// runAnnotate converts a -json findings array on stdin into GitHub
// Actions error annotations on stdout, returning the process exit code.
func runAnnotate() int {
	diags, err := lint.DecodeJSON(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=simlint(%s)::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeAnnotation(d.Message))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// escapeAnnotation applies the workflow-command data escapes (%, CR, LF)
// so multi-line or percent-bearing messages survive the ::error syntax.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
