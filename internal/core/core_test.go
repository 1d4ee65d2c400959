package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"cpsdyn/internal/flexray"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/sched"
)

// servoApp returns a valid Application around the Fig.-2 servo with
// pole-placement controllers (TT distinctly faster than ET). The
// disturbance is an impulsive angular-velocity shove; as the ET loop
// converts it into angle error the TT dwell rises — the Fig.-3 effect.
func servoApp(name string, frameID int, deadline float64) *Application {
	return &Application{
		Name:     name,
		Plant:    plants.Servo(),
		H:        0.020,
		DelayTT:  0.002,
		DelayET:  0.020,
		Eth:      0.1,
		X0:       []float64{0, 2.0}, // 2 rad/s shove
		R:        8,
		Deadline: deadline,
		FrameID:  frameID,
		PolesTT:  []complex128{0.80, 0.70, 0.05},
		PolesET:  []complex128{0.93, 0.88, 0.10},
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Application)
	}{
		{"nil plant", func(a *Application) { a.Plant = nil }},
		{"bad H", func(a *Application) { a.H = 0 }},
		{"delayTT out of range", func(a *Application) { a.DelayTT = a.H * 2 }},
		{"delayTT not faster", func(a *Application) { a.DelayTT = a.DelayET }},
		{"bad Eth", func(a *Application) { a.Eth = 0 }},
		{"X0 length", func(a *Application) { a.X0 = []float64{1} }},
		{"X0 below threshold", func(a *Application) { a.X0 = []float64{0.01, 0} }},
		{"deadline beyond r", func(a *Application) { a.Deadline = a.R * 2 }},
		{"bad frame", func(a *Application) { a.FrameID = 0 }},
	}
	for _, m := range mutations {
		app := servoApp("A", 1, 3)
		m.mutate(app)
		if err := app.Validate(); err == nil {
			t.Errorf("%s: want validation error", m.name)
		}
	}
	if err := servoApp("A", 1, 3).Validate(); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
}

// probeApp is design 0 of the probe family that CI's gateway e2e and
// svcbench stream (first TT pole 0.70): ξTT = 0.26 s, ξET = 0.92 s.
func probeApp() *Application {
	return &Application{
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

// Validation rejects NaN in every float input, and ±Inf wherever it means
// nothing. NaN passes an ordered check written as x < lo || x > hi, so a
// NaN DelayTT used to derive as a zero-delay loop (ξTT 0.24 s instead of
// 0.26 s), a NaN DelayET to ξET 0.88 s instead of 0.92 s, and a NaN Eth,
// x0 or h failed only deep in the pipeline. r and the deadline follow
// sched.App: an infinite r is allowed.
func TestDeriveRejectsNonFiniteInputs(t *testing.T) {
	ctx := context.Background()
	ok, err := probeApp().DeriveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ok.Curve.XiTT-0.26) > 1e-9 || math.Abs(ok.Curve.XiET-0.92) > 1e-9 {
		t.Fatalf("probe design 0: ξTT = %g, ξET = %g, want 0.26, 0.92", ok.Curve.XiTT, ok.Curve.XiET)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		mutate func(*Application)
	}{
		{"DelayTT NaN", func(a *Application) { a.DelayTT = nan }},
		{"DelayET NaN", func(a *Application) { a.DelayET = nan }},
		{"DelayTT -Inf", func(a *Application) { a.DelayTT = -inf }},
		{"DelayET +Inf", func(a *Application) { a.DelayET = inf }},
		{"h NaN", func(a *Application) { a.H = nan }},
		{"h +Inf", func(a *Application) { a.H = inf }},
		{"Eth NaN", func(a *Application) { a.Eth = nan }},
		{"Eth +Inf", func(a *Application) { a.Eth = inf }},
		{"x0 NaN", func(a *Application) { a.X0 = []float64{0, nan} }},
		{"x0 +Inf", func(a *Application) { a.X0 = []float64{inf, 2} }},
		{"x0 -Inf", func(a *Application) { a.X0 = []float64{0, -inf} }},
		{"r NaN", func(a *Application) { a.R = nan }},
		{"deadline NaN", func(a *Application) { a.Deadline = nan }},
		{"deadline +Inf", func(a *Application) { a.Deadline = inf }},
		{"plant A NaN", func(a *Application) { a.Plant.A.Set(1, 0, nan) }},
		{"plant B +Inf", func(a *Application) { a.Plant.B.Set(1, 0, inf) }},
		{"TT pole NaN", func(a *Application) { a.PolesTT = []complex128{complex(nan, 0), 0.7, 0.05} }},
		{"ET pole Inf", func(a *Application) { a.PolesET = []complex128{complex(0.93, inf), 0.88, 0.1} }},
		{"Q NaN", func(a *Application) {
			a.PolesTT = nil
			a.QTT = mat.Identity(3)
			a.QTT.Set(0, 0, nan)
		}},
		{"R weight +Inf", func(a *Application) {
			a.PolesET = nil
			a.RET = mat.FromRows([][]float64{{inf}})
		}},
	} {
		app := probeApp()
		c.mutate(app)
		if _, err := app.DeriveContext(ctx); err == nil || !strings.HasPrefix(err.Error(), `core: app "probe-0": `) {
			t.Errorf("%s: err = %v, want a validation error", c.name, err)
		}
	}
	infR := probeApp()
	infR.R = inf
	if _, err := infR.DeriveContext(ctx); err != nil {
		t.Fatalf("r = +Inf: %v", err)
	}
}

// A walk whose state overflows becomes NaN, and NaN is not above Eth by
// an ordered test: the build before this check counted such a walk as
// settled, so x0 = [0, 1e307] derived ξTT = 0.06 s (by linearity with
// 1e300 it is about 40.1 s) and x0 = [0, 1.7e308] a 4-sample curve with
// ξTT = ξET = 0.06 s, and the probes agreed. An overflowed state now fails
// the derivation and the probe, naming the loop; finite walks are
// untouched.
func TestOverflowedWalkFails(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		x0       float64
		xiTT     float64 // seconds; 0: the derivation must fail
		overflow bool
	}{
		{x0: 2, xiTT: 0.26},
		{x0: 1e300, xiTT: 39.24},
		{x0: 1e307, overflow: true},
		{x0: 1.7e308, overflow: true},
	} {
		app := probeApp()
		app.X0 = []float64{0, c.x0}
		d, err := app.DeriveContext(ctx)
		xiTT, perr := app.ProbeSettleContext(ctx, LoopTT, new(ProbeWorkspace))
		if !c.overflow {
			if err != nil || perr != nil {
				t.Fatalf("x0 = [0, %g]: derive %v, probe %v", c.x0, err, perr)
			}
			if math.Abs(d.Curve.XiTT-c.xiTT) > 1e-9 || math.Abs(xiTT-c.xiTT) > 1e-9 {
				t.Errorf("x0 = [0, %g]: ξTT = %g (probe %g), want %g", c.x0, d.Curve.XiTT, xiTT, c.xiTT)
			}
			continue
		}
		for what, err := range map[string]error{"derive": err, "probe": perr} {
			if err == nil || !strings.HasPrefix(err.Error(), "switching: probe-0: ") || !strings.HasSuffix(err.Error(), "state overflowed to NaN") {
				t.Errorf("x0 = [0, %g]: %s error %v, want an overflow naming the app", c.x0, what, err)
			}
		}
	}
}

func TestDeriveServo(t *testing.T) {
	d, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Curve.XiTT >= d.Curve.XiET {
		t.Fatalf("ξTT = %g should beat ξET = %g", d.Curve.XiTT, d.Curve.XiET)
	}
	if !d.Curve.IsNonMonotonic() {
		t.Fatal("servo dwell curve should be non-monotonic (the Fig. 3 effect)")
	}
	for _, m := range []struct {
		name string
		dom  bool
	}{
		{"non-monotonic", d.NonMono.Dominates(d.Curve.Samples, 1e-9)},
		{"conservative", d.Conservative.Dominates(d.Curve.Samples, 1e-9)},
	} {
		if !m.dom {
			t.Errorf("%s model must dominate the sampled curve", m.name)
		}
	}
	// ξ′M ≥ ξM ≥ ξTT ordering of Fig. 4.
	row := d.TimingRow()
	if !(row.XiPrimeM >= row.XiM && row.XiM >= row.XiTT) {
		t.Fatalf("model ordering broken: ξ′M=%g ξM=%g ξTT=%g", row.XiPrimeM, row.XiM, row.XiTT)
	}
	if row.Kp <= 0 || row.Kp >= row.XiET {
		t.Fatalf("kp = %g outside (0, ξET)", row.Kp)
	}
}

func TestDeriveRejectsUnstableDesign(t *testing.T) {
	app := servoApp("bad", 1, 3)
	app.PolesTT = []complex128{1.5, 0.6, 0.05} // unstable pole
	if _, err := app.DeriveContext(context.Background()); err == nil {
		t.Fatal("want error for unstable TT design")
	}
}

func TestDeriveLQRFallback(t *testing.T) {
	app := servoApp("lqr", 1, 6)
	app.PolesTT, app.PolesET = nil, nil // default LQR
	d, err := app.DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.KTT == nil || d.KET == nil {
		t.Fatal("LQR gains missing")
	}
	for _, a := range []*mat.Matrix{d.Sys.A1, d.Sys.A2} {
		if stable, err := mat.IsSchurStable(a); err != nil || !stable {
			t.Fatalf("LQR closed loop not Schur stable (%v):\n%v", err, a)
		}
	}
}

func TestModelKindSelection(t *testing.T) {
	d, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[ModelKind]string{
		NonMonotonic:          "non-monotonic",
		ConservativeMonotonic: "conservative",
		SimpleMonotonic:       "simple",
	} {
		m, err := d.Model(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(m.Kind, want) {
			t.Errorf("kind %v → model %q", kind, m.Kind)
		}
	}
	if _, err := d.Model(ModelKind(99)); err == nil {
		t.Fatal("want error for unknown kind")
	}
	if ModelKind(99).String() == "" || NonMonotonic.String() != "non-monotonic" {
		t.Fatal("ModelKind strings wrong")
	}
}

func TestSchedAppBridge(t *testing.T) {
	d, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := d.SchedApp(NonMonotonic)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Name != "servo" || sa.R != 8 || sa.Deadline != 3 {
		t.Fatalf("bridge lost fields: %+v", sa)
	}
	if err := sa.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateSlotsFleet(t *testing.T) {
	fleet := deriveFleet(t,
		servoApp("A", 1, 2.0),
		servoApp("B", 2, 4.0),
		servoApp("C", 3, 6.0),
	)
	al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumSlots() < 1 || al.NumSlots() > 3 {
		t.Fatalf("slots = %d", al.NumSlots())
	}
	if err := al.Verify(); err != nil {
		t.Fatal(err)
	}
	// Conservative analysis must never use fewer slots.
	alCons, err := AllocateSlots(context.Background(), fleet, ConservativeMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if alCons.NumSlots() < al.NumSlots() {
		t.Fatalf("conservative %d slots < non-monotonic %d", alCons.NumSlots(), al.NumSlots())
	}
}

func deriveFleet(t *testing.T, apps ...*Application) []*Derived {
	t.Helper()
	fleet := make([]*Derived, 0, len(apps))
	for _, a := range apps {
		d, err := a.DeriveContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		fleet = append(fleet, d)
	}
	return fleet
}

func TestBuildSimAndVerifyEndToEnd(t *testing.T) {
	fleet := deriveFleet(t,
		servoApp("A", 1, 2.0),
		servoApp("B", 2, 4.0),
	)
	al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plan := SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     6,
		JitterBuffer: true,
		DisturbAllAt: 0,
	}
	res, err := Verify(fleet, al, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		ar := res.Apps[name]
		if ar == nil || len(ar.ResponseTimes) != 1 {
			t.Fatalf("%s: missing result", name)
		}
		if !ar.DeadlineMet {
			t.Fatalf("%s missed deadline: %v", name, ar.ResponseTimes)
		}
	}
}

func TestBuildSimSlotOverflow(t *testing.T) {
	fleet := deriveFleet(t, servoApp("A", 1, 2.0))
	al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plan := SimPlan{Bus: flexray.CaseStudyConfig(), Duration: 1, DisturbAllAt: -1}
	plan.Bus.StaticSlots = 0
	plan.Bus.CycleLength = 5 * flexray.Millisecond
	if _, err := BuildSim(fleet, al, plan); err == nil {
		t.Fatal("want error when the allocation needs more slots than the bus has")
	}
}

func TestBuildSimMissingApp(t *testing.T) {
	fleet := deriveFleet(t, servoApp("A", 1, 2.0), servoApp("B", 2, 4.0))
	partial, err := AllocateSlots(context.Background(), fleet[:1], NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plan := SimPlan{Bus: flexray.CaseStudyConfig(), Duration: 1, DisturbAllAt: -1}
	if _, err := BuildSim(fleet, partial, plan); err == nil {
		t.Fatal("want error for app missing from the allocation")
	}
}

// The simulated response under a shared slot must stay within the
// analytical worst case (consistency of analysis and simulation).
func TestSimulationWithinAnalyticalBound(t *testing.T) {
	fleet := deriveFleet(t,
		servoApp("A", 1, 2.0),
		servoApp("B", 2, 4.0),
	)
	al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumSlots() != 1 {
		t.Skipf("expected shared slot, got %d", al.NumSlots())
	}
	plan := SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     6,
		JitterBuffer: true,
		DisturbAllAt: 0,
	}
	// Verify already asserts measured ≤ analytical WCRT; reaching here
	// without error is the point.
	if _, err := Verify(fleet, al, plan); err != nil {
		t.Fatal(err)
	}
}

// The paper's disturbance model: periodic disturbances with inter-arrival
// R_i; every rejection must finish before the next disturbance arrives.
func TestVerifyPeriodicDisturbances(t *testing.T) {
	a := servoApp("A", 1, 2.0)
	a.R = 3 // three disturbances within 10 s
	fleet := deriveFleet(t, a)
	al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plan := SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     10,
		JitterBuffer: true,
		DisturbAllAt: 0,
		Periodic:     true,
	}
	res, err := Verify(fleet, al, plan)
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps["A"]
	if len(ar.ResponseTimes) < 3 {
		t.Fatalf("%d disturbances injected, want ≥ 3", len(ar.ResponseTimes))
	}
	for i, rt := range ar.ResponseTimes {
		if rt < 0 || float64(rt)/1e9 > a.Deadline {
			t.Fatalf("disturbance %d: response %d ns violates the deadline", i, rt)
		}
	}
}

func TestSecToNS(t *testing.T) {
	if got := secToNS(0.02); got != 20*flexray.Millisecond {
		t.Fatalf("secToNS(0.02) = %d", got)
	}
	if got := secToNS(1.5); got != 1500*flexray.Millisecond {
		t.Fatalf("secToNS(1.5) = %d", got)
	}
}

func TestTimingRowFields(t *testing.T) {
	d, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := d.TimingRow()
	if row.Name != "servo" || math.Abs(row.R-8) > 0 || math.Abs(row.Deadline-3) > 0 {
		t.Fatalf("row = %+v", row)
	}
	if row.XiTT <= 0 || row.XiET <= row.XiTT {
		t.Fatalf("row timings: %+v", row)
	}
}

// A failed gain design names its loop and its app, and when both designs
// fail the TT loop's failure is the one reported, as it was when both
// loops were discretised before either gain was designed.
func TestDeriveGainFailureNamesTTLoopFirst(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		tt, et []complex128
		want   string
	}{
		{[]complex128{0.5, 0.5}, []complex128{0.9}, `core: app "probe-0" TT controller: control: Ackermann: 2 poles for order-3 system`},
		{nil, []complex128{0.9}, `core: app "probe-0" ET controller: control: Ackermann: 1 poles for order-3 system`},
	} {
		app := probeApp()
		if c.tt != nil {
			app.PolesTT = c.tt
		}
		app.PolesET = c.et
		if _, err := app.DeriveContext(ctx); err == nil || err.Error() != c.want {
			t.Errorf("TT poles %v, ET poles %v: err = %v, want %q", app.PolesTT, app.PolesET, err, c.want)
		}
	}
}

// Unstable and marginal designs keep their error texts in the probes and
// the derivation (recorded before the stop certificate came before the
// stability check): a loop the QR check calls unstable fails with it, and
// a pair on the unit circle that QR calls stable walks to the horizon.
func TestBadDesignsKeepErrorTexts(t *testing.T) {
	ctx := context.Background()
	stable := []complex128{0.7, 0.7, 0.05}
	slowET := []complex128{0.93, 0.88, 0.1}
	for _, c := range []struct {
		name          string
		tt, et        []complex128
		probe, derive string  // the bad loop's probe error and the derivation's
		probeLoopIsTT bool    // the bad loop is the TT loop
		otherProbeOK  float64 // the other loop's probe, in seconds
	}{
		{name: "unstable-tt", tt: []complex128{1.2, 0.7, 0.05}, et: slowET, probeLoopIsTT: true, otherProbeOK: 0.92,
			probe: "switching: unstable-tt: closed loop is not Schur stable", derive: "switching: unstable-tt: closed loop is not Schur stable"},
		{name: "marginal-tt", tt: []complex128{1, 0.7, 0.05}, et: slowET, probeLoopIsTT: true, otherProbeOK: 0.92,
			probe: "switching: marginal-tt: closed loop is not Schur stable", derive: "switching: marginal-tt: closed loop is not Schur stable"},
		{name: "unstable-et", tt: stable, et: []complex128{1.05, 0.88, 0.1}, otherProbeOK: 0.26,
			probe: "switching: unstable-et: closed loop is not Schur stable", derive: "switching: unstable-et: closed loop is not Schur stable"},
		{name: "marginal-et", tt: stable, et: []complex128{1, 0.88, 0.1}, otherProbeOK: 0.26,
			probe: "switching: marginal-et: closed loop is not Schur stable", derive: "switching: marginal-et: closed loop is not Schur stable"},
		{name: "complex-marginal-et", tt: stable, et: []complex128{complex(0.6, 0.8), complex(0.6, -0.8), 0.1}, otherProbeOK: 0.26,
			probe:  `core: app "complex-marginal-et": ET loop did not settle within the probe horizon`,
			derive: "switching: complex-marginal-et: ET loop did not settle within 20000 steps"},
	} {
		app := probeApp()
		app.Name = c.name
		app.PolesTT, app.PolesET = c.tt, c.et
		bad, good := LoopET, LoopTT
		if c.probeLoopIsTT {
			bad, good = LoopTT, LoopET
		}
		ws := new(ProbeWorkspace)
		if _, err := app.ProbeSettleContext(ctx, bad, ws); err == nil || err.Error() != c.probe {
			t.Fatalf("%s: %v probe error %v, want %q", c.name, bad, err, c.probe)
		}
		if xi, err := app.ProbeSettleContext(ctx, good, ws); err != nil || math.Abs(xi-c.otherProbeOK) > 1e-9 {
			t.Fatalf("%s: %v probe = %g, %v; want %g", c.name, good, xi, err, c.otherProbeOK)
		}
		if _, err := app.DeriveContext(ctx); err == nil || err.Error() != c.derive {
			t.Fatalf("%s: derive error %v, want %q", c.name, err, c.derive)
		}
	}
}

// One probe workspace serves probes of any application in turn, of any
// order and either loop, and each probe gives what a fresh workspace
// gives; a warm probe allocates only its discretisation's cache key.
func TestProbeWorkspaceReuse(t *testing.T) {
	ctx := context.Background()
	diesel := &Application{
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
	lqr := servoApp("lqr", 1, 6)
	lqr.PolesTT, lqr.PolesET = nil, nil
	apps := []*Application{probeApp(), diesel, servoApp("servo", 1, 3), lqr}
	var ws ProbeWorkspace
	for round := 0; round < 3; round++ {
		for _, app := range apps {
			for _, l := range []Loop{LoopTT, LoopET} {
				got, err := app.ProbeSettleContext(ctx, l, &ws)
				want, werr := app.ProbeSettleContext(ctx, l, new(ProbeWorkspace))
				if err != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v: reused workspace %g (%v), fresh %g (%v)", app.Name, l, got, err, want, werr)
				}
			}
		}
	}
	app := probeApp()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := app.ProbeSettleContext(ctx, LoopTT, &ws); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("a warm probe allocates %g times, want at most 1 (the cache key)", allocs)
	}
}
