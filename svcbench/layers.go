package main

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"time"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/conc"
	"cpsdyn/internal/control"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
	"cpsdyn/internal/switching"
)

// timed runs fn inside a span (a child of parent) and returns how long fn
// took; the span is returned for attributes.
func (b *bench) timed(name string, parent *span, fn func()) (time.Duration, *span) {
	sp := b.rec.begin(name, parent.id())
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.rec.end(sp)
	return d, sp
}

// repeat times fn until it has at least minSamples samples and minTime of
// work, or maxSamples samples.
func (b *bench) repeat(name string, parent *span, minSamples, maxSamples int, minTime time.Duration, fn func()) []float64 {
	var out []float64
	total := time.Duration(0)
	for len(out) < maxSamples && (len(out) < minSamples || total < minTime) {
		d, _ := b.timed(name, parent, fn)
		out = append(out, d.Seconds())
		total += d
	}
	return out
}

// directLayers times the layers' public functions on the workload's own
// inputs, with the cache warm from the last pass: inputs are every row of
// the workload, fleet its allocation input, calib its calibration requests
// (nil: calibrate the workload's first design towards its own measured
// response times). It runs after the checks; it ends with the cache reset.
func (b *bench) directLayers(e *env, inputs []deriveInput, fleet []*sched.App, calib []service.CalibrateAppSpec) {
	root := b.rec.begin("direct layers", "")
	defer b.rec.end(root)
	ctx := b.ctx

	// core: fresh Applications (no per-app memo) on the warm cache.
	var deriveS []float64
	rounds := min(max(1000/max(len(inputs), 1), 1), 50)
	for r := 0; r < rounds; r++ {
		for i := range inputs {
			app := inputs[i].compile(i)
			var err error
			d, _ := b.timed("core.DeriveContext", root, func() { _, err = app.DeriveContext(ctx) })
			if err != nil {
				b.fail("direct derive %s: %v", app.Name, err)
				return
			}
			deriveS = append(deriveS, d.Seconds())
		}
	}
	b.metric("core.derive_s", median(deriveS), "s", fmt.Sprintf("p50 of %d warm derivations", len(deriveS)))

	designs := distinct(inputs)
	derived := make([]*core.Derived, len(designs))
	for i, app := range designs {
		var err error
		if derived[i], err = app.DeriveContext(ctx); err != nil {
			b.fail("direct derive %s: %v", app.Name, err)
			return
		}
	}
	b.switchingLayer(root, derived)
	b.matLayer(root, derived)
	b.ltiControlPwl(root, designs, derived)

	// conc: the ordered stream pipeline with a no-op row function, at the
	// service's width and window, over the workload's row count.
	workers := runtime.GOMAXPROCS(0)
	n := len(inputs)
	src := iter.Seq[int](func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	})
	var streamErr error
	streamS := b.repeat("conc.StreamOrdered", root, 20, 500, 100*time.Millisecond, func() {
		streamErr = conc.StreamOrdered(ctx, workers, 2*workers, src,
			func(_ context.Context, _ int, item int) int { return item },
			func(int, int) error { return nil })
	})
	if streamErr != nil {
		b.fail("conc.StreamOrdered: %v", streamErr)
	}
	b.metric("conc.stream_item_s", median(streamS)/float64(max(n, 1)), "s",
		fmt.Sprintf("p50 of %d streams of %d no-op rows", len(streamS), n))

	// sched: the policy race on the workload's fleet.
	var al *sched.Allocation
	var allocErr error
	allocS := b.repeat("sched.AllocateRace", root, 20, 500, 200*time.Millisecond, func() {
		al, allocErr = sched.AllocateRace(fleet, nil, sched.ClosedForm)
	})
	slots := 0
	if allocErr != nil {
		b.fail("sched.AllocateRace: %v", allocErr)
	} else {
		slots = al.NumSlots()
	}
	b.metric("sched.allocate_s", median(allocS), "s", fmt.Sprintf("p50 of %d races over %d apps", len(allocS), len(fleet)))
	b.metric("sched.slots", float64(slots), "count", fmt.Sprintf("TT slots for %d apps", len(fleet)))

	b.storeLayer(root, e)
	b.casestudyLayer(root, designs, derived, calib)
}

// switchingLayer samples every distinct curve again, directly: once
// sequentially (the per-step cost) and once across GOMAXPROCS workers (the
// fan-out speed-up). Both must reproduce the service's curve bit for bit.
func (b *bench) switchingLayer(root *span, derived []*core.Derived) {
	workers := runtime.GOMAXPROCS(0)
	var seq, par time.Duration
	var steps uint64
	samples := 0
	for _, d := range derived {
		var c1, cN *switching.Curve
		var err1, errN error
		s0 := switching.SimSteps()
		t1, sp := b.timed("switching.SampleCurveWith", root, func() {
			c1, err1 = d.Sys.SampleCurveWith(switching.SampleCurveOptions{Workers: 1})
		})
		n := switching.SimSteps() - s0
		sp.set("workers", 1)
		sp.set("steps", n)
		sp.set("nsPerStep", float64(t1.Nanoseconds())/float64(max(n, 1)))
		tN, sp := b.timed("switching.SampleCurveWith", root, func() {
			cN, errN = d.Sys.SampleCurveWith(switching.SampleCurveOptions{Workers: workers})
		})
		sp.set("workers", workers)
		if err1 != nil || errN != nil || !sameCurve(c1, d.Curve) || !sameCurve(cN, d.Curve) {
			b.fail("direct SampleCurveWith on %s does not reproduce the service's curve (%v, %v)", d.App.Name, err1, errN)
		}
		seq, par, steps = seq+t1, par+tN, steps+n
		samples += len(d.Curve.Samples)
	}
	b.metric("switching.ns_per_step", float64(seq.Nanoseconds())/float64(max(steps, 1)), "ns",
		fmt.Sprintf("%d steps over %d curves at 1 worker", steps, len(derived)))
	b.metric("switching.fanout_speedup", seq.Seconds()/par.Seconds(), "ratio",
		fmt.Sprintf("%.3f s at 1 worker / %.3f s at %d", seq.Seconds(), par.Seconds(), workers))
	b.metric("switching.kwait_samples", float64(samples), "count", fmt.Sprintf("over %d distinct curves", len(derived)))
}

// matLayer times MulVecTo on the workload's TT closed loops by order, with
// a state in the normal floating-point range. A workload without an
// order-7 loop is timed on the diesel fixture's TT loop instead.
func (b *bench) matLayer(root *span, derived []*core.Derived) {
	loops := map[int][]*switching.System{}
	for _, d := range derived {
		loops[d.Sys.A2.Rows()] = append(loops[d.Sys.A2.Rows()], d.Sys)
	}
	provenance := map[int]string{3: "workload", 7: "workload"}
	if len(loops[7]) == 0 {
		sys, err := dieselSystem()
		if err != nil {
			b.fail("diesel fixture: %v", err)
		} else {
			loops[7] = []*switching.System{sys}
			provenance[7] = "diesel fixture"
		}
	}
	const calls = 200000
	for _, n := range []int{3, 7} {
		var ns []float64
		for _, sys := range loops[n] {
			x := normalState(sys.A2, sys.X0)
			dst := make([]float64, n)
			d, sp := b.timed("mat.MulVecTo", root, func() {
				for i := 0; i < calls; i++ {
					sys.A2.MulVecTo(dst, x)
				}
			})
			sp.set("calls", calls)
			sp.set("order", n)
			ns = append(ns, float64(d.Nanoseconds())/calls)
		}
		b.metric(fmt.Sprintf("mat.mulvec_ns_n%d", n), median(ns), "ns",
			fmt.Sprintf("p50 over %d %s TT loops, %d calls each", len(ns), provenance[n], calls))
	}
}

// normalState steps x0 a few times through a, so every component is a
// normal (non-zero, non-subnormal) number, typically.
func normalState(a *mat.Matrix, x0 []float64) []float64 {
	x, y := append([]float64(nil), x0...), make([]float64, len(x0))
	for k := 0; k < 3; k++ {
		a.MulVecTo(y, x)
		x, y = y, x
	}
	return x
}

// dieselSystem builds the diesel fixture's switched loops directly
// (discretise, design, close the loops) without sampling its curve.
func dieselSystem() (*switching.System, error) {
	in := deriveInput{spec: dieselSpec("diesel")}
	app := in.compile(0)
	loop := func(d float64, poles []complex128) (*mat.Matrix, error) {
		disc, err := lti.Discretize(app.Plant, app.H, d)
		if err != nil {
			return nil, err
		}
		abar, bbar := disc.Augmented()
		k, err := control.Ackermann(abar, bbar, poles)
		if err != nil {
			return nil, err
		}
		return disc.ClosedLoop(k)
	}
	a1, err := loop(app.DelayET, app.PolesET)
	if err != nil {
		return nil, err
	}
	a2, err := loop(app.DelayTT, app.PolesTT)
	if err != nil {
		return nil, err
	}
	x0 := append(append([]float64(nil), app.X0...), 0)
	return &switching.System{Name: app.Name, A1: a1, A2: a2, X0: x0, Eth: app.Eth, NormDims: len(app.X0), H: app.H}, nil
}

// ltiControlPwl times discretisation per distinct (plant, h, delay), pole
// placement per distinct (augmented loop, poles) and the model fits per
// distinct curve.
func (b *bench) ltiControlPwl(root *span, designs []*core.Application, derived []*core.Derived) {
	type discKey struct {
		plant string
		h, d  float64
	}
	seen := map[discKey]bool{}
	var discS, designS, fitS []float64
	for i, app := range designs {
		for _, d := range []float64{app.DelayTT, app.DelayET} {
			k := discKey{app.Plant.Name, app.H, d}
			if seen[k] {
				continue
			}
			seen[k] = true
			var err error
			discS = append(discS, b.repeat("lti.Discretize", root, 10, 50, 5*time.Millisecond, func() {
				_, err = lti.Discretize(app.Plant, app.H, d)
			})...)
			if err != nil {
				b.fail("lti.Discretize %s: %v", app.Plant.Name, err)
			}
		}
		dd := derived[i]
		for _, c := range []struct {
			disc  *lti.Discrete
			poles []complex128
		}{{dd.DiscTT, app.PolesTT}, {dd.DiscET, app.PolesET}} {
			abar, bbar := c.disc.Augmented()
			var err error
			designS = append(designS, b.repeat("control.Ackermann", root, 10, 50, 5*time.Millisecond, func() {
				_, err = control.Ackermann(abar, bbar, c.poles)
			})...)
			if err != nil {
				b.fail("control.Ackermann %s: %v", app.Name, err)
			}
		}
		var err error
		fitS = append(fitS, b.repeat("switching.Curve.FitModels", root, 10, 50, 5*time.Millisecond, func() {
			_, _, _, err = dd.Curve.FitModels()
		})...)
		if err != nil {
			b.fail("FitModels %s: %v", app.Name, err)
		}
	}
	b.metric("lti.discretize_s", median(discS), "s", fmt.Sprintf("p50 of %d calls over %d (plant, h, delay)", len(discS), len(seen)))
	b.metric("control.design_s", median(designS), "s", fmt.Sprintf("p50 of %d calls over %d (loop, poles)", len(designS), 2*len(designs)))
	b.metric("pwl.fit_s", median(fitS), "s", fmt.Sprintf("p50 of %d fits over %d curves", len(fitS), len(derived)))
}

// storeLayer reopens the directory the last pass's store wrote and times
// store.Get of every record the workload wrote.
func (b *bench) storeLayer(root *span, e *env) {
	core.SetDeriveStore(nil)
	e.store.Close()
	st, err := store.Open(e.dir, store.Options{})
	if err != nil {
		b.fail("reopening the store: %v", err)
		return
	}
	defer st.Close()
	var getS []float64
	for _, key := range e.keys.written() {
		var ok bool
		d, _ := b.timed("store.Get", root, func() { _, ok = st.Get(key) })
		if !ok {
			b.fail("store.Get: a written record did not load")
		}
		getS = append(getS, d.Seconds())
	}
	b.metric("store.get_s", median(getS), "s", fmt.Sprintf("p50 of %d record loads after reopening", len(getS)))
}

// casestudyLayer runs the calibration search per app, then derives each
// calibrated app on a cold cache.
func (b *bench) casestudyLayer(root *span, designs []*core.Application, derived []*core.Derived, calib []service.CalibrateAppSpec) {
	type job struct {
		app             *core.Application
		tt, et, etOmega float64
	}
	var jobs []job
	for i := range calib {
		s := &calib[i]
		in := deriveInput{spec: deriveSpec(s)}
		jobs = append(jobs, job{in.compile(i), s.TargetXiTT, s.TargetXiET, s.EtOmega})
	}
	if calib == nil && len(designs) > 0 {
		app := designs[0].CloneShallow()
		app.PolesTT, app.PolesET = nil, nil
		jobs = append(jobs, job{app, derived[0].Curve.XiTT, derived[0].Curve.XiET, 0})
	}
	var searchS, deriveS []float64
	var steps uint64
	for _, j := range jobs {
		var err error
		s0 := switching.SimSteps()
		d, sp := b.timed("casestudy.Calibrate", root, func() {
			err = casestudy.Calibrate(b.ctx, j.app, j.tt, j.et, j.etOmega)
		})
		n := switching.SimSteps() - s0
		sp.set("steps", n)
		if err != nil {
			b.fail("casestudy.Calibrate %s: %v", j.app.Name, err)
			continue
		}
		searchS, steps = append(searchS, d.Seconds()), steps+n
		core.ResetDeriveCache()
		d, _ = b.timed("core.DeriveContext cold", root, func() { _, err = j.app.DeriveContext(b.ctx) })
		if err != nil {
			b.fail("calibrated derive %s: %v", j.app.Name, err)
		}
		deriveS = append(deriveS, d.Seconds())
	}
	b.metric("casestudy.search_s", median(searchS), "s", fmt.Sprintf("p50 over %d apps", len(searchS)))
	b.metric("casestudy.search_steps", float64(steps), "count", fmt.Sprintf("simulated steps of %d searches", len(searchS)))
	b.metric("core.calibrated_derive_s", median(deriveS), "s", fmt.Sprintf("p50 of %d cold derivations after calibration", len(deriveS)))
}

// serviceLayers turns the traced blocks' scrapes and spans into per-layer
// metrics. Counts are per pass (one cold stream, or one design-loop
// iteration). The design-loop's measured phase samples no curve, so its
// curve, discretisation and store figures come from its set-up's cold
// derivation (setup).
func (b *bench) serviceLayers(acc, setup *layerAcc, cold bool, plainDurs []float64, plainRate float64) {
	passes := float64(max(acc.passes, 1))
	per := func(x float64) float64 { return x / passes }

	stepsNote := fmt.Sprintf("per pass, %d passes", acc.passes)
	steps := per(float64(acc.simSteps))
	if cold && len(acc.stepsPerPass) > 0 {
		steps = float64(acc.stepsPerPass[0])
		for _, s := range acc.stepsPerPass {
			if s != acc.stepsPerPass[0] {
				b.fail("simulated steps differ between identical cold passes: %v", acc.stepsPerPass)
			}
		}
		stepsNote = fmt.Sprintf("exact per pass, equal over %d passes", len(acc.stepsPerPass))
	}
	b.metric("switching.sim_steps", steps, "count", stepsNote)

	cold1, coldPasses, coldNote := acc, passes, "per pass"
	if !cold {
		cold1, coldPasses, coldNote = setup, 1, "of the set-up's cold derivation"
	}
	stage := func(a *layerAcc, name string) stageSum {
		if s := a.stages[name]; s != nil {
			return *s
		}
		return stageSum{}
	}
	cs := stage(cold1, "curveSample")
	b.metric("switching.curve_s", cs.seconds/coldPasses, "s", coldNote)
	b.metric("switching.curves", float64(cs.count)/coldPasses, "count", coldNote)
	ds := stage(cold1, "discretize")
	b.metric("lti.discretizations", float64(ds.count)/coldPasses, "count",
		fmt.Sprintf("%s; %.6f s in /tracez", coldNote, ds.seconds/coldPasses))
	b.metric("store.stores", float64(cold1.stores)/coldPasses, "count", coldNote)
	b.metric("store.bytes", float64(cold1.storeBytes)/coldPasses, "B", coldNote)
	b.metric("store.load_errors", float64(cold1.loadErrors)/coldPasses, "count", coldNote)
	b.metric("store.put_p50_s", cold1.storePut.quantile(0.5), "s", fmt.Sprintf("%s; %d writes", coldNote, cold1.storePut.count()))

	b.metric("mat.pool_hits", per(float64(acc.poolHits)), "count", "per pass")
	b.metric("mat.pool_misses", per(float64(acc.poolMisses)), "count", "per pass")
	b.metric("core.cache_hits", per(float64(acc.hits)), "count", "per pass")
	b.metric("core.cache_misses", per(float64(acc.misses)), "count", "per pass")
	b.metric("core.cache_disk_hits", per(float64(acc.diskHits)), "count", "per pass")
	b.metric("core.cache_evictions", per(float64(acc.evictions)), "count", "per pass")
	lookups := acc.hits + acc.misses + acc.diskHits
	b.metric("core.cache_hit_ratio", float64(acc.hits)/float64(max(lookups, 1)), "ratio",
		fmt.Sprintf("%d hits of %d lookups", acc.hits, lookups))
	cl := stage(acc, "cacheLookup")
	b.metric("core.cache_lookup_s", cl.seconds/float64(max(cl.count, 1)), "s", fmt.Sprintf("per lookup, %d lookups", cl.count))
	b.metric("core.derive_row_p50_s", acc.deriveRow.quantile(0.5), "s", fmt.Sprintf("%d rows on the slow path", acc.deriveRow.count()))

	rows := float64(max(acc.mainRows, 1))
	b.metric("service.decode_s", stage(acc, "decode").seconds/rows, "s", fmt.Sprintf("per row, %d rows", acc.mainRows))
	b.metric("service.encode_s", stage(acc, "encode").seconds/rows, "s", fmt.Sprintf("per row, %d rows", acc.mainRows))
	b.metric("service.request_s", median(acc.reqS), "s", fmt.Sprintf("p50 of %d client spans", len(acc.reqS)))
	b.metric("service.span_s", median(acc.spanS), "s", fmt.Sprintf("p50 of %d server spans", len(acc.spanS)))
	b.metric("service.wait_s", median(acc.waitS), "s", "p50 of client minus server span")
	b.metric("service.allocate_request_s", median(acc.allocS), "s", fmt.Sprintf("p50 of %d /v1/allocate calls", len(acc.allocS)))
	b.metric("service.iteration_p99_s", quantile(plainDurs, 0.99), "s", fmt.Sprintf("p99 of %d untraced passes", len(plainDurs)))
	if acc.unmatched > 0 {
		b.fail("%d traced requests had no server span in /tracez", acc.unmatched)
	}

	tracedRate := float64(acc.rows) / acc.wall.Seconds()
	b.metric("obs.trace_overhead", tracedRate/plainRate, "ratio",
		fmt.Sprintf("traced %.2f rows/s / untraced %.2f rows/s", tracedRate, plainRate))
}
