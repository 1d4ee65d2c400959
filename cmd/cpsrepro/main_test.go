package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpsdyn/internal/service"
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

// writeBenchReport writes rep to a fresh file and returns its path.
func writeBenchReport(t *testing.T, rep benchReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// bench-compare fails on any work counter that rose, compares only the
// counters both reports carry, and still compares a report without them.
func TestBenchCompareGatesCounters(t *testing.T) {
	write := func(counters []benchCounter) string {
		return writeBenchReport(t, benchReport{Schema: 1, Benchmarks: []benchResult{{Name: "X", NsPerOp: 100}}, Counters: counters})
	}
	old := write([]benchCounter{{"SimSteps/a", 10}, {"SimSteps/b", 5}})
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
		err := runBenchCompare(io.Discard, []string{old, write(c.counters)})
		if (err != nil) != c.fail {
			t.Errorf("%s: bench-compare error %v, want failure %v", c.name, err, c.fail)
		}
	}
}

// A benchmark or counter only one report carries is not compared, but
// bench-compare names it, so a gate dropped from the suite shows in the
// log; it does not fail the comparison.
func TestBenchCompareListsOneSidedNames(t *testing.T) {
	old := writeBenchReport(t, benchReport{Schema: 1,
		Benchmarks: []benchResult{{Name: "X", NsPerOp: 100}, {Name: "Dropped", NsPerOp: 50, AllocsPerOp: 3}},
		Counters:   []benchCounter{{"SimSteps/a", 10}, {"SimSteps/dropped", 7}}})
	cur := writeBenchReport(t, benchReport{Schema: 1,
		Benchmarks: []benchResult{{Name: "Added", NsPerOp: 9e9, AllocsPerOp: 99}, {Name: "X", NsPerOp: 100}},
		Counters:   []benchCounter{{"SimSteps/added", 99}, {"SimSteps/a", 10}}})
	var out bytes.Buffer
	if err := runBenchCompare(&out, []string{old, cur}); err != nil {
		t.Fatalf("bench-compare failed on one-sided names: %v\n%s", err, out.String())
	}
	lines := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		lines[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{
		"Dropped only in old", "Added only in new",
		"SimSteps/dropped only in old", "SimSteps/added only in new",
	} {
		if !lines[want] {
			t.Errorf("output has no line %q:\n%s", want, out.String())
		}
	}
}

// deriveLines are a 2-app fleet of two different designs, one
// DeriveAppSpec per line.
var deriveLines = []string{
	`{"name":"probe1","plant":{"name":"probe","a":[[0,1],[-2,-3]],"b":[[0],[1]]},"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3,"polesTT":[0.8,0.7,0.05],"polesET":[0.93,0.88,0.1]}`,
	`{"name":"probe2","plant":{"name":"probe","a":[[0,1],[-2,-3]],"b":[[0],[1]]},"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":10,"deadline":4,"polesTT":[0.75,0.7,0.05],"polesET":[0.95,0.88,0.1]}`,
}

// `cpsrepro derive fleet.json` prints one table row per app with the
// values service.Derive returns for the same document.
func TestRunDeriveTable(t *testing.T) {
	ctx := context.Background()
	doc := `{"apps":[` + strings.Join(deriveLines, ",") + `]}`
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var req service.DeriveRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	want, err := service.Derive(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runDerive(ctx, &got, []string{path}, false, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(lines) != 2+len(want.Apps) {
		t.Fatalf("table has %d lines, want a header, a rule and %d rows:\n%s", len(lines), len(want.Apps), got.String())
	}
	if want.Apps[0].XiET == want.Apps[1].XiET {
		t.Fatal("the two designs derive the same ξET; the test cannot tell their rows apart")
	}
	for i, a := range want.Apps {
		row := []string{a.Name,
			fmt.Sprintf("%.3f", a.XiTT), fmt.Sprintf("%.3f", a.XiET), fmt.Sprintf("%.3f", a.XiM),
			fmt.Sprintf("%.3f", a.Kp), fmt.Sprintf("%.3f", a.XiPrimeM), fmt.Sprintf("%v", a.NonMonotonic)}
		if fields := strings.Fields(lines[2+i]); strings.Join(fields, " ") != strings.Join(row, " ") {
			t.Errorf("row %d = %q, want %q", i, fields, row)
		}
	}
}

// `cpsrepro derive -stream fleet.ndjson` writes exactly the rows
// service.DeriveStream writes for the same lines.
func TestRunDeriveStream(t *testing.T) {
	ctx := context.Background()
	body := strings.Join(deriveLines, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := service.DeriveStream(ctx, strings.NewReader(body), &want, service.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runDerive(ctx, &got, []string{path}, true, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("stream output differs from service.DeriveStream:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	if n := bytes.Count(got.Bytes(), []byte("\n")); n != len(deriveLines) || bytes.Contains(got.Bytes(), []byte(`"error"`)) {
		t.Fatalf("want %d result rows, got:\n%s", len(deriveLines), got.Bytes())
	}
}
