package main

// bench-export runs the kernel benchmarks that gate this repository's
// performance trajectory (matrix exponentials, discretisation, the
// service's warm row path, its cache key, its codec, the slot-allocation
// race, the certified dwell-curve sampling stage, one cold derivation, the
// persistent store's write and read, and one servo calibration)
// hermetically via testing.Benchmark — no `go test`
// subprocess — and writes them as one JSON report (BENCH_N.json is the
// committed artefact per perf PR), together with exact work counters: the
// simulated steps and kwait samples of one sequential curve sampling per
// fixture curve, and the simulated steps of each §V calibration search.
// bench-compare diffs two such reports with benchstat-style semantics: it
// fails on a >threshold geometric-mean regression in ns/op, on any
// allocs/op increase or on any counter increase, and lists every
// benchmark and counter only one report carries; the CI bench-compare job
// runs it against the merge base.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
	"cpsdyn/internal/switching"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	Iterations  int     `json:"iterations"`
}

// benchCounter is one exact, deterministic work count. Unlike a timing it
// has no noise, so bench-compare allows it no increase at all.
type benchCounter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

type benchReport struct {
	Schema     int            `json:"schema"`
	GoVersion  string         `json:"goVersion"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Benchmarks []benchResult  `json:"benchmarks"`
	Counters   []benchCounter `json:"counters,omitempty"`
}

// benchKernelMatrix mirrors internal/mat's benchMatrix: a deterministic
// well-conditioned order-n matrix needing a couple of squaring steps.
func benchKernelMatrix(n int) *mat.Matrix {
	r := rand.New(rand.NewSource(int64(n)))
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		a.Set(i, i, a.At(i, i)-1)
	}
	return a
}

// benchAppSpecs draws n paper-style schedulability views from a fixed
// seed, in allocation-request form: non-monotonic models with ξM ≥ ξTT,
// inter-arrival times a few ξET long and deadlines in [1.2 ξTT, r], so
// every app fits a slot alone.
func benchAppSpecs(n int) []service.AppSpec {
	r := rand.New(rand.NewSource(int64(n)))
	specs := make([]service.AppSpec, n)
	for i := range specs {
		xiTT := 0.2 + 2*r.Float64()
		xiET := xiTT * (2 + 4*r.Float64())
		kp := xiET * (0.05 + 0.3*r.Float64())
		xiM := xiTT * (1 + r.Float64())
		rr := xiET * (1.2 + 6*r.Float64())
		specs[i] = service.AppSpec{
			Name:     fmt.Sprintf("sched-%d", i),
			R:        rr,
			Deadline: xiTT*1.2 + (rr-xiTT*1.2)*r.Float64(),
			Model:    service.ModelSpec{Kind: "non-monotonic", XiTT: xiTT, Kp: kp, XiM: xiM, XiET: xiET},
		}
	}
	return specs
}

// benchSchedFleet compiles benchAppSpecs(n) the way the service does.
func benchSchedFleet(n int) []*sched.App {
	specs := benchAppSpecs(n)
	apps := make([]*sched.App, n)
	for i, s := range specs {
		m, _, err := service.BuildModel(s.Model)
		if err != nil {
			panic(err) // 0 < kp < ξET and ξM ≥ ξTT by construction
		}
		apps[i] = &sched.App{Name: s.Name, R: s.R, Deadline: s.Deadline, Model: m}
	}
	return apps
}

// ciProbeLine is one request line of CI's streaming e2e batch: probe
// design 0 in the shape of every svcbench derive row.
const ciProbeLine = `{"name":"S1","plant":{"name":"probe","a":[[0,1],[-2,-3]],"b":[[0],[1]]},` +
	`"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3,` +
	`"polesTT":[0.8,0.7,0.05],"polesET":[0.93,0.88,0.1]}` + "\n"

// ciProbeRow derives ciProbeLine and returns its response row.
func ciProbeRow() (service.StreamRow, error) {
	var out bytes.Buffer
	var row service.StreamRow
	if _, err := service.DeriveStream(context.Background(), strings.NewReader(ciProbeLine), &out,
		service.StreamOptions{Workers: 1}); err != nil {
		return row, err
	}
	if err := json.Unmarshal(out.Bytes(), &row); err != nil {
		return row, err
	}
	if row.Result == nil {
		return row, fmt.Errorf("probe row: %s", row.Error)
	}
	return row, nil
}

// probeApp compiles design 0 of the CI probe family the way cpsdynd
// compiles a request row: a fresh Application with fresh matrices.
func probeApp() *core.Application {
	return &core.Application{
		Name: "probe-0",
		Plant: &lti.Continuous{Name: "probe",
			A: mat.FromRows([][]float64{{0, 1}, {-2, -3}}),
			B: mat.FromRows([][]float64{{0}, {1}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{0.70, 0.7, 0.05},
		PolesET: []complex128{0.93, 0.88, 0.1},
	}
}

// dieselApp is the 6-state diesel engine of the RADP example, driven
// through the second column of its input matrix (svcbench's diesel rows):
// an order-7 loop, so its walks run the generic MulVecTo kernel.
func dieselApp() *core.Application {
	return &core.Application{
		Name: "diesel",
		Plant: &lti.Continuous{Name: "diesel",
			A: mat.FromRows([][]float64{
				{-0.4125, -0.0248, 0.0741, 0.0089, 0, 0},
				{101.5873, -7.2651, 2.7608, 2.8068, 0, 0},
				{0.0704, 0.0085, -0.0741, -0.0089, 0, 0.0200},
				{0.0878, 0.2672, 0, -0.3674, 0.0044, 0.3962},
				{-1.8414, 0.0990, 0, 0, -0.0343, -0.0330},
				{0, 0, 0, -359, 187.5364, -87.0316},
			}),
			B: mat.FromRows([][]float64{{0.0064}, {1.5849}, {0}, {0}, {-0.0168}, {0}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2, 0, 0, 0, 0},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{0.80, 0.78, 0.76, 0.74, 0.72, 0.70, 0.05},
		PolesET: []complex128{0.93, 0.92, 0.91, 0.90, 0.89, 0.88, 0.10},
	}
}

// accApp is the adaptive cruise control loop of SNIPPETS.md's Snippet 2
// reduced to its controllable part, relative distance and velocity driven
// by the host's acceleration: a double integrator, marginal in open loop,
// under design 10 of the probe family.
func accApp() *core.Application {
	return &core.Application{
		Name: "acc",
		Plant: &lti.Continuous{Name: "acc",
			A: mat.FromRows([][]float64{{0, -1}, {0, 0}}),
			B: mat.FromRows([][]float64{{0}, {1}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{0.80, 0.7, 0.05},
		PolesET: []complex128{0.93, 0.88, 0.1},
	}
}

// caseStudyC4 calibrates the §V measured fleet and derives its C4 (the
// suspension, whose walks are the longest of the six against their dwells).
func caseStudyC4(ctx context.Context) (*core.Derived, error) {
	apps, err := casestudy.FleetContext(ctx)
	if err != nil {
		return nil, err
	}
	return apps[3].DeriveContext(ctx)
}

// sampleCurveBench times one certified dwell-curve sampling of the derived
// system on one worker: the stage a cold derivation spends nearly all its
// time in.
func sampleCurveBench(derive func(context.Context) (*core.Derived, error)) func(b *testing.B) {
	return func(b *testing.B) {
		d, err := derive(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		opts := switching.SampleCurveOptions{Workers: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Sys.SampleCurveWith(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// kernelBenchmarks is the fixed suite both bench-export and the CI gate
// run; names are stable across PRs so reports stay comparable.
func kernelBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	var out []struct {
		name string
		fn   func(b *testing.B)
	}
	for _, n := range []int{2, 4, 6} {
		a := benchKernelMatrix(n)
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{fmt.Sprintf("Expm/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mat.Expm(a); err != nil {
					b.Fatal(err)
				}
			}
		}})
		ws := mat.NewExpmWorkspace(n)
		dst := mat.New(n, n)
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{fmt.Sprintf("ExpmTo/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mat.ExpmTo(dst, a, ws); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	servo := plants.Servo()
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"Discretize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lti.Discretize(servo, 0.020, 0.002); err != nil {
				b.Fatal(err)
			}
		}
	}})
	ctx := context.Background()
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"DeriveRowWarm", func(b *testing.B) {
		if _, err := probeApp().DeriveContext(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := probeApp().DeriveContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}})
	probe := probeApp()
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"CacheKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = probe.CacheKey()
		}
	}})
	for _, n := range []int{30, 300} {
		fleet := benchSchedFleet(n)
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{fmt.Sprintf("AllocateRace/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.AllocateRace(fleet, nil, sched.ClosedForm); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	// The service codec on the rows the benchmark's workloads send: one
	// derive line decoded, one result row encoded, and a buffered race
	// allocation of 30 apps through the whole handler (decode, allocate,
	// indented reply).
	line := []byte(ciProbeLine)
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"DecodeDeriveRow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for ln := range service.DecodeRequests(bytes.NewReader(line), 0) {
				if ln.Err != nil {
					b.Fatal(ln.Err)
				}
			}
		}
	}})
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"EncodeStreamRow", func(b *testing.B) {
		row, err := ciProbeRow()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := service.EncodeResult(io.Discard, row); err != nil {
				b.Fatal(err)
			}
		}
	}})
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"AllocateRequest/n=30", func(b *testing.B) {
		srv, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(service.AllocateRequest{FleetRequest: service.FleetRequest{
			Policy: "race", Apps: benchAppSpecs(30)}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/allocate", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}})
	for _, c := range []struct {
		name   string
		derive func(context.Context) (*core.Derived, error)
	}{
		{"probe0", probeApp().DeriveContext},
		{"diesel", dieselApp().DeriveContext},
		{"C4", caseStudyC4},
	} {
		out = append(out, struct {
			name string
			fn   func(b *testing.B)
		}{"SampleCurve/" + c.name, sampleCurveBench(c.derive)})
	}
	// One cold derivation: an empty cache and a fresh application, so the
	// discretisations, gains, curve and fits are all computed.
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"DeriveCold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.ResetDeriveCache()
			if _, err := probeApp().DeriveContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}})
	// One measured-mode calibration: the servo's TT and ET searches, as
	// BenchmarkCalibrate runs them.
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"Calibrate/servo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := casestudy.ServoAppContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}})
	// The persistent store on the diesel curve's record: a write-behind Put
	// and the Flush that waits for its append (one key, re-put, so
	// compaction keeps the log at its floor), and a Get of the record.
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"StorePut", storeBench(func(b *testing.B, st *store.Store, curve *switching.Curve) {
		for i := 0; i < b.N; i++ {
			st.Put(storeBenchKey, curve)
			st.Flush()
		}
	})})
	out = append(out, struct {
		name string
		fn   func(b *testing.B)
	}{"StoreGet", storeBench(func(b *testing.B, st *store.Store, curve *switching.Curve) {
		st.Put(storeBenchKey, curve)
		st.Flush()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := st.Get(storeBenchKey); !ok {
				b.Fatal("the stored record did not load")
			}
		}
	})})
	return out
}

// storeBenchKey addresses the record the store stages write and read.
const storeBenchKey = "bench|diesel-curve"

// storeBench runs body on a store opened in a fresh temp directory, with
// the diesel curve to write; the directory goes when the run ends.
func storeBench(body func(b *testing.B, st *store.Store, curve *switching.Curve)) func(b *testing.B) {
	return func(b *testing.B) {
		d, err := dieselApp().DeriveContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "cpsdyn-bench-store-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		body(b, st, d.Curve)
	}
}

// workCounters samples every fixture curve once, sequentially and
// certified, and counts its simulated steps and kwait samples: the 20 CI
// probe designs, the diesel engine, the ACC loop and the six calibrated §V
// loops. It also counts the simulated steps of each §V app's calibration
// search, one app at a time. The counts are exact, so any rise is a
// certificate that stops later or a walk or search that runs longer. It
// must run alone: the step counter is process-wide.
func workCounters(ctx context.Context) ([]benchCounter, error) {
	var out []benchCounter
	for _, r := range casestudy.TableI() {
		s0 := switching.SimSteps()
		if _, err := casestudy.FleetAppContext(ctx, r.Name); err != nil {
			return nil, err
		}
		out = append(out, benchCounter{"SearchSteps/" + r.Name, switching.SimSteps() - s0})
	}
	var derived []*core.Derived
	for design := 0; design < 20; design++ {
		// Design k moves the first TT pole to 0.70 + k/100.
		app := probeApp()
		app.Name = fmt.Sprintf("probe-%d", design)
		app.PolesTT[0] = complex(float64(70+design)/100, 0)
		d, err := app.DeriveContext(ctx)
		if err != nil {
			return nil, err
		}
		derived = append(derived, d)
	}
	d, err := dieselApp().DeriveContext(ctx)
	if err != nil {
		return nil, err
	}
	derived = append(derived, d)
	if d, err = accApp().DeriveContext(ctx); err != nil {
		return nil, err
	}
	derived = append(derived, d)
	fleet, err := casestudy.DeriveFleetContext(ctx)
	if err != nil {
		return nil, err
	}
	derived = append(derived, fleet...)
	for _, d := range derived {
		s0 := switching.SimSteps()
		c, err := d.Sys.SampleCurveWith(switching.SampleCurveOptions{Workers: 1, Context: ctx})
		if err != nil {
			return nil, err
		}
		out = append(out,
			benchCounter{"SimSteps/" + d.App.Name, switching.SimSteps() - s0},
			benchCounter{"KwaitSamples/" + d.App.Name, uint64(len(c.Samples))})
	}
	return out, nil
}

// runBenchExport measures the kernel suite and writes the JSON report.
// -count N repeats each benchmark and keeps the fastest ns/op (and the
// worst allocs/op), damping scheduler noise the way benchstat's min-based
// summaries do.
func runBenchExport(args []string) error {
	fs := flag.NewFlagSet("bench-export", flag.ExitOnError)
	out := fs.String("out", "-", "output file (- = stdout)")
	count := fs.Int("count", 3, "runs per benchmark; fastest wins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		*count = 1
	}
	report := benchReport{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range kernelBenchmarks() {
		var best benchResult
		for c := 0; c < *count; c++ {
			r := testing.Benchmark(bm.fn)
			res := benchResult{
				Name:        bm.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			if c == 0 || res.NsPerOp < best.NsPerOp {
				best.Name, best.NsPerOp, best.BytesPerOp, best.Iterations = res.Name, res.NsPerOp, res.BytesPerOp, res.Iterations
			}
			if res.AllocsPerOp > best.AllocsPerOp {
				best.AllocsPerOp = res.AllocsPerOp
			}
		}
		fmt.Fprintf(os.Stderr, "%-20s %12.1f ns/op %8d B/op %6d allocs/op\n",
			best.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp)
		report.Benchmarks = append(report.Benchmarks, best)
	}
	counters, err := workCounters(context.Background())
	if err != nil {
		return err
	}
	for _, c := range counters {
		fmt.Fprintf(os.Stderr, "%-26s %10d\n", c.Name, c.Value)
	}
	report.Counters = counters
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// runBenchCompare diffs two bench-export reports (old, new) and fails on
// a geometric-mean ns/op regression beyond -threshold, on any benchmark
// whose allocs/op increased, or on any work counter both reports carry
// that increased. A benchmark or counter only one report carries is
// listed as "only in old" or "only in new" and does not fail the
// comparison, so a dropped gate shows in the log. A report without
// counters compares on its benchmarks.
func runBenchCompare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench-compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.15, "allowed geomean ns/op regression (0.15 = +15%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cpsrepro bench-compare [-threshold f] old.json new.json")
	}
	oldRep, err := readBenchReport(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(fs.Arg(1))
	if err != nil {
		return err
	}
	oldBy := make(map[string]benchResult, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}
	var names []string
	for _, r := range newRep.Benchmarks {
		if _, ok := oldBy[r.Name]; ok {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("bench-compare: no common benchmarks between %s and %s", fs.Arg(0), fs.Arg(1))
	}
	newBy := make(map[string]benchResult, len(newRep.Benchmarks))
	for _, r := range newRep.Benchmarks {
		newBy[r.Name] = r
	}
	logSum := 0.0
	var allocRegressions []string
	fmt.Fprintf(w, "%-20s %14s %14s %8s %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs old→new")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		ratio := n.NsPerOp / o.NsPerOp
		logSum += math.Log(ratio)
		fmt.Fprintf(w, "%-20s %14.1f %14.1f %8.3f %d→%d\n",
			name, o.NsPerOp, n.NsPerOp, ratio, o.AllocsPerOp, n.AllocsPerOp)
		if n.AllocsPerOp > o.AllocsPerOp {
			allocRegressions = append(allocRegressions,
				fmt.Sprintf("%s: %d → %d allocs/op", name, o.AllocsPerOp, n.AllocsPerOp))
		}
	}
	for _, r := range oldRep.Benchmarks {
		if _, ok := newBy[r.Name]; !ok {
			fmt.Fprintf(w, "%-20s only in old\n", r.Name)
		}
	}
	for _, r := range newRep.Benchmarks {
		if _, ok := oldBy[r.Name]; !ok {
			fmt.Fprintf(w, "%-20s only in new\n", r.Name)
		}
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(w, "geomean ns/op ratio: %.3f (gate: ≤ %.3f)\n", geomean, 1+*threshold)
	counterRegressions := compareCounters(w, oldRep.Counters, newRep.Counters)
	if len(allocRegressions) > 0 {
		return fmt.Errorf("bench-compare: allocs/op regressed: %v", allocRegressions)
	}
	if len(counterRegressions) > 0 {
		return fmt.Errorf("bench-compare: work counters rose: %v", counterRegressions)
	}
	if geomean > 1+*threshold {
		return fmt.Errorf("bench-compare: geomean ns/op regressed %.1f%% (limit %.0f%%)",
			(geomean-1)*100, *threshold*100)
	}
	return nil
}

// compareCounters prints the counters both reports carry, in the new
// report's order, then the ones only one report carries, and lists every
// one that rose.
func compareCounters(w io.Writer, oldCs, newCs []benchCounter) []string {
	if len(oldCs)+len(newCs) == 0 {
		return nil
	}
	oldBy := make(map[string]uint64, len(oldCs))
	for _, c := range oldCs {
		oldBy[c.Name] = c.Value
	}
	newBy := make(map[string]uint64, len(newCs))
	for _, c := range newCs {
		newBy[c.Name] = c.Value
	}
	fmt.Fprintf(w, "%-26s %12s %12s %8s\n", "counter", "old", "new", "ratio")
	var rose []string
	for _, c := range newCs {
		o, ok := oldBy[c.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-26s %12d %12d %8.3f\n", c.Name, o, c.Value, float64(c.Value)/float64(max(o, 1)))
		if c.Value > o {
			rose = append(rose, fmt.Sprintf("%s: %d → %d", c.Name, o, c.Value))
		}
	}
	for _, c := range oldCs {
		if _, ok := newBy[c.Name]; !ok {
			fmt.Fprintf(w, "%-26s only in old\n", c.Name)
		}
	}
	for _, c := range newCs {
		if _, ok := oldBy[c.Name]; !ok {
			fmt.Fprintf(w, "%-26s only in new\n", c.Name)
		}
	}
	return rose
}

func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
