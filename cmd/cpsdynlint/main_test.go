package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// cleanPkg is a package the full analyzer suite is known to pass on; the
// tree-wide CI run keeps that invariant.
const cleanPkg = "cpsdyn/internal/analysis/cfg"

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, c := range checks {
		if !strings.Contains(stdout.String(), c.analyzer.Name) {
			t.Errorf("-list output is missing analyzer %q:\n%s", c.analyzer.Name, stdout.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{cleanPkg}); code != 0 {
		t.Fatalf("run(%s) = %d, want 0; stdout:\n%s\nstderr:\n%s",
			cleanPkg, code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote findings:\n%s", stdout.String())
	}
}

func TestVetStyleFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./testdata/leaky"}); code != 1 {
		t.Fatalf("run(testdata/leaky) = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("vet-style output has %d lines, want 2:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "leaky.go:") || !strings.HasSuffix(line, "[lockguard]") {
			t.Errorf("finding %q is not a [lockguard] finding in leaky.go", line)
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr summary = %q, want it to count 2 findings", stderr.String())
	}
}

func TestJSONFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-json", "./testdata/leaky"}); code != 1 {
		t.Fatalf("run(-json testdata/leaky) = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var got []finding
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var f finding
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("-json emitted %d findings, want 2: %+v", len(got), got)
	}
	analyzers := map[string]bool{}
	for _, f := range got {
		analyzers[f.Analyzer] = true
		if !strings.HasSuffix(f.File, "leaky.go") {
			t.Errorf("finding file = %q, want …/leaky.go", f.File)
		}
		if f.Line <= 0 {
			t.Errorf("finding line = %d, want positive", f.Line)
		}
		if f.Message == "" {
			t.Errorf("finding for %s has an empty message", f.Analyzer)
		}
	}
	if len(analyzers) != 1 || !analyzers["lockguard"] {
		t.Errorf("findings cover %v, want lockguard only", analyzers)
	}
}

func TestTimingGoesToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-timing", cleanPkg}); code != 0 {
		t.Fatalf("run(-timing) = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, c := range checks {
		if !strings.Contains(stderr.String(), c.analyzer.Name) {
			t.Errorf("-timing stderr is missing analyzer %q:\n%s", c.analyzer.Name, stderr.String())
		}
	}
	if strings.Contains(stdout.String(), "ms") {
		t.Errorf("timing lines leaked to stdout:\n%s", stdout.String())
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-no-such-flag"}); code != 2 {
		t.Fatalf("run(-no-such-flag) = %d, want 2", code)
	}
}

func TestUnknownPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./does-not-exist"}); code != 2 {
		t.Fatalf("run(./does-not-exist) = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cpsdynlint:") {
		t.Errorf("load failure did not explain itself on stderr: %q", stderr.String())
	}
}
