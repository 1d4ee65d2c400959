package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cpsdyn/internal/obs"
)

// tinySizes shrinks every workload to a few rows, so one run takes seconds.
func tinySizes() sizes {
	return sizes{
		probeApps: 6, probeDesigns: 2, dieselApps: 0,
		loopApps: 4, loopDesigns: 2,
		calibApps:  1,
		coldSetups: 2, loopSetups: 2,
		loopBlock: 5,
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// sockets counts the process's open socket descriptors.
func sockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// TestWorkloadsCleanUp runs every workload, untraced and traced, at a tiny
// size: each run must pass its own checks, print exactly the metrics
// BENCHMARK.json declares, and leave no goroutine, socket or temp
// directory behind.
func TestWorkloadsCleanUp(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, wl := range []string{"cold-fleet", "design-loop", "calibrate"} {
		for _, trace := range []bool{false, true} {
			name := wl + "/untraced"
			if trace {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				base := t.TempDir()
				cfg := config{workload: wl, seed: 7, seconds: 50 * time.Millisecond, trace: trace,
					outDir: filepath.Join(base, "spans"), tmpBase: filepath.Join(base, "tmp"), sizes: tinySizes()}
				if err := os.Mkdir(cfg.tmpBase, 0o755); err != nil {
					t.Fatal(err)
				}
				goroutines, socks := runtime.NumGoroutine(), sockets(t)

				var out bytes.Buffer
				sum, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", sum.Correct, sum.Attempted, sum.Failed, out.String())
				}
				var got []string
				for name := range sum.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				want := endToEnd
				if trace {
					want = perLayer
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics\n got %v\nwant %v", got, want)
				}

				left, err := os.ReadDir(cfg.tmpBase)
				if err != nil || len(left) != 0 {
					t.Errorf("temp directories left behind: %v (%v)", left, err)
				}
				if spans, _ := os.ReadDir(cfg.outDir); trace != (len(spans) == 1) {
					t.Errorf("traced=%v but %d span files", trace, len(spans))
				}
				// Connections wind down asynchronously after Close; wait for
				// them, but not forever.
				deadline := time.Now().Add(5 * time.Second)
				for (runtime.NumGoroutine() > goroutines || sockets(t) > socks) && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before the run, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
				}
				if n := sockets(t); n > socks {
					t.Errorf("%d sockets before the run, %d after", socks, n)
				}
			})
		}
	}
}

// TestHistDeltaMatchesObs pins the histogram arithmetic the traced run
// applies to /statsz snapshots against obs's own: a delta over an empty
// start must reproduce the snapshot's quantiles.
func TestHistDeltaMatchesObs(t *testing.T) {
	var h obs.Histogram
	before := h.Snapshot()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	after := h.Snapshot()
	var d hist
	d.addDelta(&before, &after)
	if d.count() != after.Count {
		t.Fatalf("count %d, want %d", d.count(), after.Count)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, after.P50}, {0.9, after.P90}, {0.99, after.P99}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, obs says %g", c.q, got, c.want)
		}
	}
}
