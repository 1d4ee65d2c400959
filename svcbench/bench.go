package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"

	"cpsdyn/internal/core"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
)

// bench is one run's state: the configuration, the temp directory every
// store lives under, the span recorder (traced runs only), the metrics and
// the failure accounting.
type bench struct {
	cfg config
	out io.Writer
	tmp string
	rec *recorder
	ctx context.Context

	metrics   []metric
	problems  []string
	dropped   int // problems beyond the printed ones
	attempted int
	failed    int
}

type metric struct {
	name, unit string
	value      float64
	note       string // base, sample count or provenance, printed only
}

func newBench(cfg config, w io.Writer) (*bench, error) {
	tmp, err := os.MkdirTemp(cfg.tmpBase, "svcbench-")
	if err != nil {
		return nil, fmt.Errorf("temp directory: %w", err)
	}
	// cpsdynd's defaults: -cache-entries 1024, unbounded bytes, curve
	// sampling fanned out over GOMAXPROCS.
	core.SetDeriveCacheCapacity(1024, 0)
	core.SetCurveSamplingWorkers(0)
	b := &bench{cfg: cfg, out: w, tmp: tmp, ctx: context.Background()}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b, nil
}

// cleanup detaches any store from the process-wide cache and removes the
// run's temp directory. Every service the run started is already closed.
func (b *bench) cleanup() {
	core.SetDeriveStore(nil)
	core.ResetDeriveCache()
	os.RemoveAll(b.tmp)
}

func (b *bench) metric(name string, v float64, unit, note string) {
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// fail records a failed check; the run then reports correct=false.
func (b *bench) fail(format string, args ...any) {
	if len(b.problems) >= 20 {
		b.dropped++
		return
	}
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// rng is the workload's input generator: the same seed, the same inputs.
func (b *bench) rng() *rand.Rand { return rand.New(rand.NewPCG(b.cfg.seed, 0x5eed)) }

// checkRNG draws the seeded probe points of the output checks, separately
// from the inputs.
func (b *bench) checkRNG() *rand.Rand { return rand.New(rand.NewPCG(b.cfg.seed, 0xc4ec)) }

// workload is one named traffic mix.
type workload struct {
	// cold: every pass runs on a fresh service (empty cache, empty store);
	// otherwise every pass reuses the one service the set-up warmed.
	cold bool
	// setups is how many set-ups an untraced run times for setup_s.
	setups int
	// block is how many passes a traced block holds between scrapes. The
	// /tracez ring keeps the 256 most recent traces, so a block must send
	// fewer requests than that.
	block int
	// inputs generates the request bodies from the seed (part of set-up).
	inputs func()
	// setup runs on a fresh service inside the timed set-up (nil = none).
	setup func(e *env, bl *block) error
	// pass sends one unit of work: its requests plus the byte compares
	// cheap enough to stay in the loop. dur covers the requests only.
	pass func(e *env, bl *block) passResult
	// check verifies the outputs of the last pass, outside the timed phase.
	check func(e *env)
	// fleet is the allocation input of the last pass's derived fleet
	// (traced runs only).
	fleet func() ([]service.AppSpec, error)
	// layers times the layers' public functions on the workload's inputs,
	// fleet being the fleet as sched sees it (traced runs only).
	layers func(e *env, fleet []*sched.App)
}

type passResult struct {
	rows, attempted, failed int
	dur                     time.Duration
}

func (b *bench) workload(name string) (*workload, error) {
	switch name {
	case "cold-fleet":
		return b.coldFleet(), nil
	case "design-loop":
		return b.designLoop(), nil
	case "calibrate":
		return b.calibrate(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-fleet, design-loop or calibrate)", name)
}

// runner drives one workload's set-ups and passes.
type runner struct {
	b        *bench
	w        *workload
	e        *env
	setups   []float64
	setupAcc *layerAcc // traced runs: what the set-up's requests did
}

// fresh replaces the current service with a newly set-up one.
func (r *runner) fresh() error {
	r.close()
	t0 := time.Now()
	r.w.inputs()
	e, err := openEnv(r.b.tmp, r.b.rec)
	if err != nil {
		return err
	}
	r.e = e
	if r.w.setup != nil {
		bl := r.b.newBlock("setup")
		var before, after service.StatszResponse
		if bl.traced() {
			if err := e.get("/statsz", &before); err != nil {
				return err
			}
		}
		if err := r.w.setup(e, bl); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if bl.traced() {
			e.store.Flush()
			if err := bl.match(e, r.setupAcc); err != nil {
				return err
			}
			if err := e.get("/statsz", &after); err != nil {
				return err
			}
			r.setupAcc.addStats(&before, &after)
			r.b.rec.end(bl.parent)
		}
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

func (r *runner) close() {
	if r.e != nil {
		r.e.close()
		r.e = nil
	}
}

func (b *bench) newBlock(name string) *block {
	if b.rec == nil {
		return nil
	}
	return &block{rec: b.rec, parent: b.rec.begin(name, ""), pending: make(map[string]*pendingReq)}
}

// warmup is how long untimed passes run on a warm service before timing
// starts, so lazy set-up and first-use costs are paid first.
const warmup = 300 * time.Millisecond

func (b *bench) measure(w *workload) error {
	r := &runner{b: b, w: w, setupAcc: newLayerAcc()}
	defer r.close()
	if b.rec != nil {
		return r.traced()
	}
	return r.untraced()
}

func (r *runner) count(res passResult) {
	r.b.attempted += res.attempted
	r.b.failed += res.failed
}

func (r *runner) warm(setups int) error {
	for i := 0; i < setups; i++ {
		if err := r.fresh(); err != nil {
			return err
		}
	}
	for t0 := time.Now(); time.Since(t0) < warmup; {
		r.count(r.w.pass(r.e, nil))
	}
	return nil
}

// untraced is the end-to-end run: set-ups, the measured phase, the checks.
func (r *runner) untraced() error {
	b, w := r.b, r.w
	if !w.cold {
		if err := r.warm(w.setups); err != nil {
			return err
		}
	}
	var durs []float64
	rows, cpu := 0, time.Duration(0)
	for start := time.Now(); len(durs) == 0 || time.Since(start) < b.cfg.seconds; {
		if w.cold {
			if err := r.fresh(); err != nil {
				return err
			}
		}
		c0 := cpuTime()
		res := w.pass(r.e, nil)
		cpu += cpuTime() - c0
		r.count(res)
		durs = append(durs, res.dur.Seconds())
		rows += res.rows
	}
	w.check(r.e)
	if w.cold {
		// A cold set-up takes milliseconds, so the ones interleaved with
		// passes are at the mercy of the passes' leftover work (garbage
		// collection, the store's write-behind); time a quiet series.
		r.setups = r.setups[:0]
		for len(r.setups) < w.setups {
			if err := r.fresh(); err != nil {
				return err
			}
		}
	}
	r.close()
	total := sum(durs)
	b.metric("rows_per_s", float64(rows)/total, "1/s", fmt.Sprintf("%d rows in %.3f s of passes", rows, total))
	b.metric("cpu_s_per_row", cpu.Seconds()/float64(max(rows, 1)), "s", fmt.Sprintf("%.3f CPU-s, client and server", cpu.Seconds()))
	b.metric("iteration_p50_s", median(durs), "s", fmt.Sprintf("median of %d passes, min %.4g p99 %.4g max %.4g",
		len(durs), quantile(durs, 0), quantile(durs, 0.99), quantile(durs, 1)))
	b.metric("max_rss_mb", maxRSSMB(), "MB", "peak RSS of the process")
	b.metric("setup_s", median(r.setups), "s", fmt.Sprintf("median of %d set-ups, min %.4g max %.4g",
		len(r.setups), quantile(r.setups, 0), quantile(r.setups, 1)))
	return nil
}

// traced is the per-layer run: untraced and traced blocks alternate for
// the run's seconds (two of each at least), so their throughput ratio is
// the tracing overhead; the traced blocks scrape /statsz around themselves
// and /tracez after; then the checks and the direct layer timings run.
func (r *runner) traced() error {
	b, w := r.b, r.w
	if !w.cold {
		if err := r.warm(1); err != nil {
			return err
		}
	}
	acc := newLayerAcc()
	var plainDurs []float64
	plainRows, plainWall := 0, time.Duration(0)
	for i, start := 0, time.Now(); i < 4 || time.Since(start) < b.cfg.seconds; i++ {
		if w.cold {
			if err := r.fresh(); err != nil {
				return err
			}
		}
		traced := i%2 == 1
		t0 := time.Now()
		var bl *block
		var before service.StatszResponse
		if traced {
			bl = b.newBlock("block")
			if err := r.e.get("/statsz", &before); err != nil {
				return err
			}
		}
		rows := 0
		var blockSpan *span
		if traced {
			blockSpan = bl.parent
		}
		for p := 0; p < w.block; p++ {
			if traced {
				bl.parent = b.rec.begin("pass", blockSpan.ID)
			}
			res := w.pass(r.e, bl)
			r.count(res)
			rows += res.rows
			if traced {
				bl.parent.set("rows", res.rows)
				b.rec.end(bl.parent)
				acc.passes++
			} else {
				plainDurs = append(plainDurs, res.dur.Seconds())
			}
		}
		if !traced {
			plainRows += rows
			plainWall += time.Since(t0)
			continue
		}
		r.e.store.Flush()
		if err := bl.match(r.e, acc); err != nil {
			return err
		}
		var after service.StatszResponse
		if err := r.e.get("/statsz", &after); err != nil {
			return err
		}
		steps := acc.addStats(&before, &after)
		if w.cold {
			acc.stepsPerPass = append(acc.stepsPerPass, steps)
		}
		acc.rows += rows
		acc.wall += time.Since(t0)
		b.rec.end(blockSpan)
	}
	w.check(r.e)
	fleet, err := w.fleet()
	if err != nil {
		return err
	}
	if w.cold {
		// The cold workloads' passes allocate nothing; allocate their
		// fleet in a traced block of its own.
		if err := r.allocate(acc, fleet); err != nil {
			return err
		}
	}
	apps, err := schedApps(fleet)
	if err != nil {
		return err
	}
	w.layers(r.e, apps)
	r.close()
	b.serviceLayers(acc, r.setupAcc, w.cold, plainDurs, float64(plainRows)/plainWall.Seconds())
	return nil
}

// allocateRequests is how many traced /v1/allocate calls a cold workload
// sends after its passes.
const allocateRequests = 20

// allocate sends the fleet's allocation request a few times in one traced
// block.
func (r *runner) allocate(acc *layerAcc, fleet []service.AppSpec) error {
	body, err := allocateBody(fleet)
	if err != nil {
		return err
	}
	bl := r.b.newBlock("allocate")
	for i := 0; i < allocateRequests; i++ {
		reply, status, _, err := bl.send(r.e, "/v1/allocate", body, kindAllocate)
		r.b.attempted++
		if err != nil || status != http.StatusOK {
			r.b.fail("/v1/allocate: status %d: %v: %.200s", status, err, reply)
			r.b.failed++
		}
	}
	err = bl.match(r.e, acc)
	r.b.rec.end(bl.parent)
	return err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
