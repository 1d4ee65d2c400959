package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// `cpsrepro all` prints every paper number this repository reproduces.
// testdata/all.golden was recorded from the command before its casestudy
// entry points took their calibrated inputs as arguments; never regenerate
// it from the code it checks. A change that moves a paper number shows up
// here as a testdata diff and has to say why.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runAll(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(gotLines), len(wantLines))
}

// bench-compare fails on any work counter that rose, compares only the
// counters both reports carry, and still compares a report without them.
func TestBenchCompareGatesCounters(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, counters []benchCounter) string {
		rep := benchReport{Schema: 1, Benchmarks: []benchResult{{Name: "X", NsPerOp: 100}}, Counters: counters}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", []benchCounter{{"SimSteps/a", 10}, {"SimSteps/b", 5}})
	for _, c := range []struct {
		name     string
		counters []benchCounter
		fail     bool
	}{
		{"fewer steps", []benchCounter{{"SimSteps/a", 9}, {"SimSteps/b", 5}}, false},
		{"one more step", []benchCounter{{"SimSteps/a", 10}, {"SimSteps/b", 6}}, true},
		{"new counter", []benchCounter{{"SimSteps/a", 10}, {"SimSteps/c", 99}}, false},
		{"no counters", nil, false},
	} {
		err := runBenchCompare([]string{old, write(c.name+".json", c.counters)})
		if (err != nil) != c.fail {
			t.Errorf("%s: bench-compare error %v, want failure %v", c.name, err, c.fail)
		}
	}
}
