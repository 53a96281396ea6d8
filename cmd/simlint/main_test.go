package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

// TestFixtureModuleFails asserts the driver's contract end to end: run
// against the violation-laden fixture module, simlint must exit 1 and
// name the analyzers — the acceptance demonstration that seeding a
// time.Now (or a Cycles/Duration mix) into a sim-core package fails the
// build.
func TestFixtureModuleFails(t *testing.T) {
	out, err := exec.Command("go", "run", ".",
		"-C", "../../internal/lint/testdata/fixmod").CombinedOutput()
	if err == nil {
		t.Fatalf("simlint on the fixture module succeeded, want exit 1\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	if code := exitErr.ExitCode(); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	for _, marker := range []string{
		"(determinism)", "(simtime)", "(counterhandle)", "(ctxflow)",
		"(allocfree)", "(lockorder)", "(ledger)", "(deadexport)",
		"time.Now", "sim.Cycles",
		"heap escape in hot path", "lock-order cycle", "metrics-writer",
	} {
		if !strings.Contains(string(out), marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}

// TestJSONAndAnnotate runs the CI pipeline end to end: -json on the
// fixture module yields a well-formed array, and feeding that array to
// -annotate yields GitHub workflow commands and exit 1.
func TestJSONAndAnnotate(t *testing.T) {
	cmd := exec.Command("go", "run", ".",
		"-C", "../../internal/lint/testdata/fixmod", "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("-json on fixture module: err=%v, want exit 1\n%s", err, stderr.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty array on the fixture module")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Fatalf("incomplete finding in -json output: %+v", f)
		}
	}

	ann := exec.Command("go", "run", ".", "-annotate")
	ann.Stdin = bytes.NewReader(stdout.Bytes())
	out, err := ann.Output()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("-annotate on findings: err=%v, want exit 1\n%s", err, out)
	}
	if got := strings.Count(string(out), "::error file="); got != len(findings) {
		t.Errorf("-annotate emitted %d annotations for %d findings:\n%s", got, len(findings), out)
	}

	// A clean (empty) array annotates to nothing and exit 0.
	clean := exec.Command("go", "run", ".", "-annotate")
	clean.Stdin = strings.NewReader("[]\n")
	if out, err := clean.Output(); err != nil || len(out) != 0 {
		t.Errorf("-annotate on []: out=%q err=%v, want empty and exit 0", out, err)
	}
}
