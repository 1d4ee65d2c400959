// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§V), plus the ablations documented in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates the artefact from scratch (or from a fleet or
// servo derived once in its set-up where the paper's own figure assumes
// one) and reports the headline quantities via b.ReportMetric, so a bench
// run doubles as an experiment log.
package cpsdyn_test

import (
	"context"
	"fmt"
	"testing"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
	"cpsdyn/internal/flexray"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
	"cpsdyn/internal/switching"
)

// derivedFleet calibrates and derives the measured-mode fleet: the set-up
// step the paper performs once per case study.
func derivedFleet(b *testing.B) []*core.Derived {
	b.Helper()
	fleet, err := casestudy.DeriveFleetContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return fleet
}

// derivedServo calibrates and derives the Fig.-3 servo experiment.
func derivedServo(b *testing.B) *core.Derived {
	b.Helper()
	ctx := context.Background()
	app, err := casestudy.ServoAppContext(ctx)
	if err != nil {
		b.Fatal(err)
	}
	d, err := app.DeriveContext(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTable1PaperMode rebuilds the Table I schedulability view (the
// §III models for all six applications) from the paper's parameters.
func BenchmarkTable1PaperMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := casestudy.PaperApps(core.NonMonotonic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Measured derives one measured Table-I row (the servo; a
// full fleet derivation is benchmarked via Figure 5's setup).
func BenchmarkTable1Measured(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := derivedServo(b).TimingRow()
		b.ReportMetric(row.XiTT, "xiTT_s")
		b.ReportMetric(row.XiET, "xiET_s")
	}
}

// BenchmarkWalkthrough recomputes the §V quoted values (k̂wait, ξ̂).
func BenchmarkWalkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vals, err := casestudy.Walkthrough()
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != 6 {
			b.Fatalf("%d values", len(vals))
		}
	}
}

// BenchmarkSlotAllocationNonMonotonic reproduces the paper's 3-slot result.
func BenchmarkSlotAllocationNonMonotonic(b *testing.B) {
	slots := 0
	for i := 0; i < b.N; i++ {
		al, err := casestudy.PaperAllocation(context.Background(), core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		slots = al.NumSlots()
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkSlotAllocationConservative reproduces the paper's 5-slot result.
func BenchmarkSlotAllocationConservative(b *testing.B) {
	slots := 0
	for i := 0; i < b.N; i++ {
		al, err := casestudy.PaperAllocation(context.Background(), core.ConservativeMonotonic, sched.FirstFit, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		slots = al.NumSlots()
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkFigure3Curve regenerates the servo dwell/wait curve from the
// derived switched system.
func BenchmarkFigure3Curve(b *testing.B) {
	sys := derivedServo(b).Sys
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sys.SampleCurveWith(switching.SampleCurveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		peak := c.PeakSample()
		b.ReportMetric(peak.Dwell, "peak_dwell_s")
		b.ReportMetric(peak.Wait, "peak_wait_s")
	}
}

// BenchmarkFigure4Models regenerates the three §III models on the servo.
func BenchmarkFigure4Models(b *testing.B) {
	r := casestudy.RunFig3(derivedServo(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nm, cons, simple, err := r.Curve.FitModels()
		if err != nil {
			b.Fatal(err)
		}
		if nm == nil || cons == nil || simple == nil {
			b.Fatal("missing model")
		}
	}
}

// BenchmarkFigure5Simulation runs the six-app FlexRay co-simulation with
// all disturbances at t = 0 on the pre-derived fleet.
func BenchmarkFigure5Simulation(b *testing.B) {
	fleet := derivedFleet(b)
	alloc, err := core.AllocateSlots(context.Background(), fleet, core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		b.Fatal(err)
	}
	plan := core.SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     14,
		JitterBuffer: true,
		DisturbAllAt: 0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Verify(fleet, alloc, plan)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != 6 {
			b.Fatal("wrong app count")
		}
	}
	b.ReportMetric(float64(alloc.NumSlots()), "slots")
}

// BenchmarkAblationSweepKp runs the dwell-peak-position sweep.
func BenchmarkAblationSweepKp(b *testing.B) {
	fr := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	for i := 0; i < b.N; i++ {
		pts, err := casestudy.SweepKp(context.Background(), fr, sched.FirstFit, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(fr) {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkAblationRandomWorkloads measures the synthetic-workload sweep.
func BenchmarkAblationRandomWorkloads(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		stats, err := casestudy.RandomWorkloads(context.Background(), 42, 100, 6, sched.FirstFit, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		saving = stats.MeanSavingPercent
	}
	b.ReportMetric(saving, "mean_saving_%")
}

// BenchmarkAblationMethods compares closed-form and fixed-point bounds.
func BenchmarkAblationMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := casestudy.CompareMethods(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExactAllocator prices the branch-and-bound optimum
// against the paper's first-fit heuristic on the Table I workload.
func BenchmarkAblationExactAllocator(b *testing.B) {
	slots := 0
	for i := 0; i < b.N; i++ {
		al, err := casestudy.PaperAllocation(context.Background(), core.NonMonotonic, sched.Exact, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		slots = al.NumSlots()
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkDeriveFleet measures the concurrent fleet-derivation engine on
// the calibrated fleet (calibration excluded; the derivation cache is reset
// and the applications are fresh copies each iteration, and DeriveFleet
// fills a fresh result slice, so nothing serves them warm and the matrix
// exponentials and dwell curves are recomputed).
func BenchmarkDeriveFleet(b *testing.B) {
	fleet := derivedFleet(b)
	apps := make([]*core.Application, len(fleet))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range fleet {
			apps[j] = d.App.CloneShallow()
		}
		core.ResetDeriveCache()
		out, err := core.DeriveFleet(context.Background(), apps)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(apps) {
			b.Fatal("wrong fleet size")
		}
	}
}

// BenchmarkDeriveFleetCached measures the same derivation served from the
// warm cache — the fleet-workload steady state.
func BenchmarkDeriveFleetCached(b *testing.B) {
	fleet := derivedFleet(b)
	apps := make([]*core.Application, len(fleet))
	for i, d := range fleet {
		apps[i] = d.App
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeriveFleet(context.Background(), apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleCurve measures the dwell-curve sampling hot path on the
// calibrated servo — the dominant cost of every cache-miss derive — at
// several fan-out widths. workers=1 is the strictly sequential baseline;
// the sharded runs produce byte-identical curves (pinned by the switching
// determinism test), so the ratio of the two is pure speedup.
func BenchmarkSampleCurve(b *testing.B) {
	sys := derivedServo(b).Sys
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			samples := 0
			for i := 0; i < b.N; i++ {
				c, err := sys.SampleCurveWith(switching.SampleCurveOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				samples = len(c.Samples)
			}
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

// BenchmarkCalibrate measures one full measured-mode calibration (the
// servo's TT and ET binary searches) — the dominant cost of measured mode.
func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := casestudy.ServoAppContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyRace races first-fit, sequential and best-fit concurrently
// on the Table I workload and reports the winning slot count.
func BenchmarkPolicyRace(b *testing.B) {
	apps, err := casestudy.PaperApps(core.NonMonotonic)
	if err != nil {
		b.Fatal(err)
	}
	slots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := sched.AllocateRace(apps, nil, sched.ClosedForm)
		if err != nil {
			b.Fatal(err)
		}
		slots = al.NumSlots()
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkAllocateBatch allocates many independent copies of the Table I
// fleet concurrently, each racing the policies, through the batch path
// behind /v1/allocate and slotalloc's multi-fleet input, and reports the
// batch width.
func BenchmarkAllocateBatch(b *testing.B) {
	var apps []service.AppSpec
	for _, r := range casestudy.TableI() {
		apps = append(apps, service.AppSpec{Name: r.Name, R: r.R, Deadline: r.Xid,
			Model: service.ModelSpec{Kind: "non-monotonic", XiTT: r.XiTT, Kp: r.Kp, XiM: r.XiM, XiET: r.XiET}})
	}
	const fleets = 16
	reqs := make([]service.FleetRequest, fleets)
	for i := range reqs {
		reqs[i] = service.FleetRequest{Policy: "race", Method: "closed-form", Apps: apps}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := service.AllocateFleets(context.Background(), reqs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
	b.ReportMetric(fleets, "fleets")
}
