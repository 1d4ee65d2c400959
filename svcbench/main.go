// Command svcbench is the repository's layered service benchmark. It drives
// the real cpsdynd handler (internal/service behind an in-process httptest
// server, derivation-cache capacity and curve workers at cpsdynd's
// defaults) through one named workload built from a seed, from one client
// on one connection in a closed loop, and checks every output.
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) runs the same workload with client spans on every request,
// scrapes /statsz and /tracez, times the layers' public functions directly
// on the workload's own inputs, prints the per-layer metrics and writes
// its spans to a JSON file under -out. Either way the last line of
// standard output is the JSON summary
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash svcbench/run.sh --workload cold-fleet --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings: the command line plus the input sizes,
// which only tests shrink.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string // span files
	tmpBase  string // parent of the run's temp directory ("" = os.TempDir)
	sizes
}

// sizes are the workload dimensions.
type sizes struct {
	probeApps, probeDesigns, dieselApps int // cold-fleet
	loopApps, loopDesigns               int // design-loop
	calibApps                           int // calibrate
	coldSetups, loopSetups              int // set-ups per run; setup_s is their median
	loopBlock                           int // design-loop iterations between traced scrapes
}

func defaultSizes() sizes {
	return sizes{
		probeApps: 300, probeDesigns: 20, dieselApps: 4,
		loopApps: 30, loopDesigns: 6,
		calibApps: 6,
		// A cold set-up takes milliseconds, a design-loop set-up over a
		// second (it derives the fleet cold).
		coldSetups: 25, loopSetups: 3,
		loopBlock: 50,
	}
}

// defaultSeed is the seed the golden digests of seed-dependent outputs
// were recorded at.
const defaultSeed = 1

func main() {
	cfg := config{sizes: defaultSizes()}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-fleet, design-loop or calibrate")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/spans", "directory for span files of traced runs")
	flag.Parse()
	if flag.NArg() != 0 || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	sum, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run executes one workload and returns its summary; human-readable lines
// (environment, every metric with its base or sample count, check
// failures) go to w first.
func run(cfg config, w io.Writer) (*summary, error) {
	b, err := newBench(cfg, w)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	env := environment()
	fmt.Fprintf(w, "env gomaxprocs=%v nproc=%v go=%v cpu=%q\n", env["gomaxprocs"], env["nproc"], env["go"], env["cpu"])
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	wl, err := b.workload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := b.measure(wl); err != nil {
		return nil, err
	}
	if b.rec != nil {
		path, err := b.rec.write(cfg.outDir, cfg.workload, cfg.seed, env)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "spans %s\n", path)
	}
	sum := &summary{Correct: len(b.problems) == 0 && b.failed == 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: make(map[string]metricValue)}
	for _, m := range b.metrics {
		fmt.Fprintf(w, "metric %-28s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		sum.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	if b.dropped > 0 {
		fmt.Fprintf(w, "FAIL … and %d more\n", b.dropped)
	}
	return sum, nil
}
