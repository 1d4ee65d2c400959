package casestudy

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"cpsdyn/internal/core"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/sched"
)

// derivedFleet calibrates and derives the measured fleet. That takes tens
// of milliseconds since the settling walks stop at their certificates, so
// every test, -short included, derives its own.
func derivedFleet(t *testing.T) []*core.Derived {
	t.Helper()
	fleet, err := DeriveFleetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// derivedServo calibrates and derives the Fig.-3 servo experiment.
func derivedServo(t *testing.T) *core.Derived {
	t.Helper()
	ctx := context.Background()
	app, err := ServoAppContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d, err := app.DeriveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A pre-cancelled context aborts the fleet calibration before any search
// work runs.
func TestFleetContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FleetContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancelling mid-search returns promptly: the probe evaluations carry the
// context down into the settling simulations.
func TestCalibrateCancelMidSearch(t *testing.T) {
	app := &core.Application{
		Name:     "cancel",
		Plant:    plants.Servo(),
		H:        0.020,
		DelayTT:  0.002,
		DelayET:  0.020,
		Eth:      0.1,
		X0:       []float64{0, 2.0},
		R:        8,
		Deadline: 3,
		FrameID:  1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Calibrate(ctx, app, 0.68, 2.16, 0) }()
	cancel()
	select {
	case err := <-done:
		// Either the cancellation was observed or (unlikely) the search
		// finished first; hanging is the bug.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled calibration did not return promptly")
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 6 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.XiTT < r.XiET && r.XiTT <= r.XiM && r.XiM <= r.XiPrimeM) {
			t.Errorf("%s: ordering broken: %+v", r.Name, r)
		}
		if r.Xid > r.R {
			t.Errorf("%s: deadline beyond inter-arrival", r.Name)
		}
		if !(0 < r.Kp && r.Kp < r.XiET) {
			t.Errorf("%s: kp outside (0, ξET)", r.Name)
		}
	}
}

// The §V walk-through must reproduce every quoted number.
func TestPaperWalkthrough(t *testing.T) {
	vals, err := Walkthrough()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 {
		t.Fatalf("walk-through has %d values, want 6", len(vals))
	}
	for _, v := range vals {
		tol := 0.01 * math.Max(1, v.Paper)
		if math.Abs(v.Got-v.Paper) > tol {
			t.Errorf("%s = %.4f, paper says %.4f", v.Label, v.Got, v.Paper)
		}
	}
}

// Headline: 3 slots (non-monotonic) vs 5 (conservative), +67%.
func TestPaperSlotCounts(t *testing.T) {
	c, err := ComparePaperSlotCounts(context.Background(), sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if c.NonMonotonicSlots != 3 {
		t.Fatalf("non-monotonic slots = %d, want 3", c.NonMonotonicSlots)
	}
	if c.ConservativeSlots != 5 {
		t.Fatalf("conservative slots = %d, want 5", c.ConservativeSlots)
	}
	if math.Abs(c.ExtraPercent-66.67) > 1 {
		t.Fatalf("extra = %.1f%%, want ≈67%%", c.ExtraPercent)
	}
}

// The exact groupings of §V.
func TestPaperGroupings(t *testing.T) {
	al, err := PaperAllocation(context.Background(), core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"C3": 0, "C6": 0, "C2": 1, "C4": 1, "C5": 2, "C1": 2}
	for name, slot := range want {
		if got := al.SlotOf(name); got != slot {
			t.Errorf("%s on slot %d, want %d", name, got+1, slot+1)
		}
	}
}

func TestPaperAppsUnknownKind(t *testing.T) {
	if _, err := PaperApps(core.ModelKind(42)); err == nil {
		t.Fatal("want error for unknown model kind")
	}
}

// The unsafe simple-monotonic model packs more aggressively (it cannot use
// more slots than the non-monotonic model on this workload).
func TestPaperSimpleMonotonicPacksTighter(t *testing.T) {
	simple, err := PaperAllocation(context.Background(), core.SimpleMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := PaperAllocation(context.Background(), core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if simple.NumSlots() > nm.NumSlots() {
		t.Fatalf("simple %d slots > non-monotonic %d", simple.NumSlots(), nm.NumSlots())
	}
}

func TestServoFig3Reproduction(t *testing.T) {
	r := RunFig3(derivedServo(t))
	// Shape: non-monotonic with an interior peak, like the paper's Fig. 3.
	if !r.Curve.IsNonMonotonic() {
		t.Fatal("servo curve must be non-monotonic")
	}
	peak := r.Curve.PeakSample()
	if peak.Wait <= 0 || peak.Wait > r.Curve.XiET/2 {
		t.Fatalf("peak at %g s, want early interior peak", peak.Wait)
	}
	// Magnitudes: within 15% of the paper's ξTT = 0.68 s, ξET = 2.16 s.
	if math.Abs(r.Curve.XiTT-0.68) > 0.15*0.68 {
		t.Fatalf("ξTT = %g, want ≈0.68", r.Curve.XiTT)
	}
	if math.Abs(r.Curve.XiET-2.16) > 0.15*2.16 {
		t.Fatalf("ξET = %g, want ≈2.16", r.Curve.XiET)
	}
}

func TestServoFig4Models(t *testing.T) {
	r := RunFig4(derivedServo(t))
	if !r.NonMonotonic.Dominates(r.Curve.Samples, 1e-9) {
		t.Fatal("non-monotonic model must dominate the measured curve")
	}
	if !r.Conservative.Dominates(r.Curve.Samples, 1e-9) {
		t.Fatal("conservative model must dominate the measured curve")
	}
	if r.Simple.Dominates(r.Curve.Samples, 1e-9) {
		t.Fatal("simple model must NOT dominate a non-monotonic curve (that is the point)")
	}
	// Conservative ≥ non-monotonic everywhere (Fig. 4 ordering).
	for w := 0.0; w < r.Curve.XiET; w += r.Curve.XiET / 101 {
		if r.Conservative.Dwell(w) < r.NonMonotonic.Dwell(w)-1e-9 {
			t.Fatalf("conservative below non-monotonic at %g", w)
		}
	}
}

func TestMeasuredFleetMatchesTableITimings(t *testing.T) {
	fleet := derivedFleet(t)
	paper := TableI()
	for i, d := range fleet {
		row := d.TimingRow()
		p := paper[i]
		if math.Abs(row.XiTT-p.XiTT) > 0.10*p.XiTT+0.05 {
			t.Errorf("%s: ξTT = %.2f, paper %.2f", row.Name, row.XiTT, p.XiTT)
		}
		if math.Abs(row.XiET-p.XiET) > 0.10*p.XiET+0.05 {
			t.Errorf("%s: ξET = %.2f, paper %.2f", row.Name, row.XiET, p.XiET)
		}
		if row.XiM < row.XiTT-1e-9 || row.XiPrimeM < row.XiM-1e-9 {
			t.Errorf("%s: model ordering broken: %+v", row.Name, row)
		}
	}
}

func TestMeasuredSlotCountsOrdering(t *testing.T) {
	fleet := derivedFleet(t)
	ctx := context.Background()
	nm, err := core.AllocateSlots(ctx, fleet, core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := core.AllocateSlots(ctx, fleet, core.ConservativeMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if nm.NumSlots() > cons.NumSlots() {
		t.Fatalf("non-monotonic (%d) must never need more slots than conservative (%d)",
			nm.NumSlots(), cons.NumSlots())
	}
	if nm.NumSlots() < 1 {
		t.Fatal("fleet cannot fit in zero slots")
	}
}

// Fig. 5: all six measured apps, disturbed at t = 0, meet their deadlines
// in the event-level FlexRay co-simulation.
func TestFig5AllDeadlinesMet(t *testing.T) {
	r, err := RunFig5(context.Background(), derivedFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sim.Apps) != 6 {
		t.Fatalf("%d apps simulated", len(r.Sim.Apps))
	}
	for name, ar := range r.Sim.Apps {
		if !ar.DeadlineMet {
			t.Errorf("%s missed its deadline: %v", name, ar.ResponseTimes)
		}
		if len(ar.Trace) == 0 {
			t.Errorf("%s has an empty trace", name)
		}
	}
	if r.Allocation.NumSlots() < 1 || r.Allocation.NumSlots() > 6 {
		t.Fatalf("allocation has %d slots", r.Allocation.NumSlots())
	}
}

func TestSweepKpGapGrowsWithKp(t *testing.T) {
	pts, err := SweepKp(context.Background(), []float64{0.2, 0.6, 1.0}, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.NonMonotonicSlots > p.ConservativeSlots {
			t.Fatalf("fraction %g: non-monotonic worse than conservative", p.Fraction)
		}
	}
	// At the paper's kp (fraction 1.0) the gap is the headline 3 vs 5.
	last := pts[len(pts)-1]
	if last.NonMonotonicSlots != 3 || last.ConservativeSlots != 5 {
		t.Fatalf("fraction 1.0: %d vs %d, want 3 vs 5", last.NonMonotonicSlots, last.ConservativeSlots)
	}
	// The conservative penalty must not shrink as kp grows.
	for i := 1; i < len(pts); i++ {
		gap0 := pts[i-1].ConservativeSlots - pts[i-1].NonMonotonicSlots
		gap1 := pts[i].ConservativeSlots - pts[i].NonMonotonicSlots
		if gap1 < gap0 {
			t.Fatalf("gap shrank from %d to %d as kp grew", gap0, gap1)
		}
	}
}

func TestSweepKpValidation(t *testing.T) {
	if _, err := SweepKp(context.Background(), []float64{0}, sched.FirstFit, sched.ClosedForm); err == nil {
		t.Fatal("want error for fraction 0")
	}
}

func TestRandomWorkloads(t *testing.T) {
	stats, err := RandomWorkloads(context.Background(), 7, 40, 6, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workloads < 10 {
		t.Fatalf("only %d usable workloads", stats.Workloads)
	}
	if !stats.NeverWorse {
		t.Fatal("non-monotonic model used more slots than conservative on some workload")
	}
	if stats.MeanConservative < stats.MeanNonMonotonic {
		t.Fatalf("mean slots: conservative %.2f < non-monotonic %.2f",
			stats.MeanConservative, stats.MeanNonMonotonic)
	}
}

func TestRandomWorkloadsValidation(t *testing.T) {
	if _, err := RandomWorkloads(context.Background(), 1, 0, 6, sched.FirstFit, sched.ClosedForm); err == nil {
		t.Fatal("want error for zero count")
	}
}

func TestSweepSegmentsTightensSafely(t *testing.T) {
	pts, err := SweepSegments(derivedServo(t), []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if !p.Dominates {
			t.Fatalf("%d segments: model does not dominate the curve", p.Segments)
		}
		if i > 0 && p.Area > pts[i-1].Area+1e-9 {
			t.Fatalf("area grew from %g to %g with more segments", pts[i-1].Area, p.Area)
		}
	}
}

func TestCompareMethods(t *testing.T) {
	cmp, err := CompareMethods()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) == 0 {
		t.Fatal("no comparisons produced")
	}
	for _, c := range cmp {
		if c.FixedPoint > c.ClosedForm+1e-9 {
			t.Errorf("%s: fixed point %.3f exceeds closed form %.3f", c.App, c.FixedPoint, c.ClosedForm)
		}
	}
}

// calibratedPolesGolden is testdata/calibrated_poles.json: the calibrated
// pole designs of the six §V apps and of the servo, each pole's real and
// imaginary part in exact hexadecimal, recorded from the calibration whose
// probes walked both loops. Never regenerate it from the code it checks.
const calibratedPolesGolden = "testdata/calibrated_poles.json"

// calibratedPoles renders the calibrated designs of apps for
// calibratedPolesGolden.
func calibratedPoles(apps []*core.Application) map[string]map[string][]string {
	hex := func(ps []complex128) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = strconv.FormatFloat(real(p), 'x', -1, 64) + " " + strconv.FormatFloat(imag(p), 'x', -1, 64) + "i"
		}
		return out
	}
	out := make(map[string]map[string][]string, len(apps))
	for _, a := range apps {
		out[a.Name] = map[string][]string{"tt": hex(a.PolesTT), "et": hex(a.PolesET)}
	}
	return out
}

// The calibration searches find bit for bit the designs they found when
// each probe built, checked and walked both loops.
func TestCalibratedPolesMatchGolden(t *testing.T) {
	ctx := context.Background()
	apps, err := FleetContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	servo, err := ServoAppContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(calibratedPoles(append(apps, servo)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(calibratedPolesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Fatalf("calibrated poles differ from %s:\n%s", calibratedPolesGolden, got)
	}
}

// FleetAppContext calibrates each §V app alone to the designs FleetContext
// finds for it in the fleet, bit for bit (bench-export's SearchSteps/*
// counters time these single calibrations), and rejects an unknown name.
func TestFleetAppContextMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(calibratedPolesGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, r := range TableI() {
		app, err := FleetAppContext(ctx, r.Name)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		got := calibratedPoles([]*core.Application{app})[r.Name]
		if !slices.Equal(got["tt"], want[r.Name]["tt"]) || !slices.Equal(got["et"], want[r.Name]["et"]) {
			t.Fatalf("%s: poles %v, golden %v", r.Name, got, want[r.Name])
		}
	}
	const unknown = `casestudy: no measured-mode application "C7"`
	if app, err := FleetAppContext(ctx, "C7"); app != nil || err == nil || err.Error() != unknown {
		t.Fatalf("FleetAppContext(C7) = %v, %v; want %q", app, err, unknown)
	}
}

// A fixed ET design that fails ends the TT search with the error it gave
// when every TT probe also walked the ET loop, though the TT probes alone
// succeed: here the ET pair at 150 rad/s lifts the servo's state about 30×
// and overflows from x0 = [0, 1e307], while every TT design lifts it at
// most 1.13×. A done ctx gives ctx's error instead.
func TestCalibrateFailingFixedETDesign(t *testing.T) {
	app := &core.Application{
		Name:     "servo",
		Plant:    plants.Servo(),
		H:        0.020,
		DelayTT:  0.0007,
		DelayET:  0.020,
		Eth:      0.1,
		X0:       []float64{0, 1e307},
		R:        6,
		Deadline: 3,
		FrameID:  1,
	}
	ctx := context.Background()
	const want = "TT calibration: no stabilising design found for target 0.680 s"
	if err := Calibrate(ctx, app, 0.68, 2.16, 150); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if app.PolesTT != nil || app.PolesET != nil {
		t.Fatal("a failed calibration set the designs")
	}
	probe := app.CloneShallow()
	probe.PolesTT = []complex128{0.5, 0.425, 0.05}
	probe.PolesET = []complex128{0.95, 0.874, 0.1}
	if _, err := probe.ProbeSettleContext(ctx, core.LoopTT, new(core.ProbeWorkspace)); err != nil {
		t.Fatalf("a TT probe failed: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := Calibrate(cancelled, app, 0.68, 2.16, 150); !errors.Is(err, context.Canceled) ||
		err.Error() != "TT calibration: context canceled" {
		t.Fatalf("err = %v, want the TT search's context.Canceled", err)
	}
}
