// Package casestudy reproduces §V of the paper in two complementary modes.
//
// Paper mode feeds the exact Table I timing parameters into the §III models
// and the §IV schedulability analysis, reproducing every number quoted in
// the paper's walk-through (k̂wait,6 = 0.669, ξ̂6 = 1.589, ξ̂′2 = 6.426, …)
// and the headline slot counts: 3 TT slots under the non-monotonic model
// versus 5 under the conservative monotonic model (+67%).
//
// Measured mode builds six concrete automotive applications (the paper does
// not disclose its plants), auto-calibrates their controllers so the pure
// TT/ET response times approach Table I, and then runs the same pipeline —
// dwell-curve sampling, model fitting, slot allocation and the Fig.-5
// event-level FlexRay co-simulation — end to end.
package casestudy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/core"
	"cpsdyn/internal/flexray"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/sim"
)

// Row mirrors one row of the paper's Table I (all values in seconds).
type Row struct {
	Name     string
	R        float64 // minimum disturbance inter-arrival time r_i
	Xid      float64 // desired response time (deadline) ξd_i
	XiTT     float64 // pure-TT response time
	XiET     float64 // pure-ET response time
	XiM      float64 // maximum dwell time of the non-monotonic model
	Kp       float64 // wait time at the model peak
	XiPrimeM float64 // maximum dwell time of the conservative model
}

// TableI returns the paper's Table I.
func TableI() []Row {
	return []Row{
		{"C1", 200, 9.5, 1.68, 11.62, 5.30, 2.27, 6.59},
		{"C2", 20, 6.25, 2.58, 8.59, 2.95, 1.34, 3.50},
		{"C3", 15, 2, 0.39, 3.97, 0.64, 0.69, 0.77},
		{"C4", 200, 7.5, 2.50, 10.40, 4.03, 1.92, 4.94},
		{"C5", 20, 8.5, 2.75, 10.63, 4.58, 1.97, 5.62},
		{"C6", 6, 6, 0.71, 7.94, 0.92, 0.67, 1.01},
	}
}

// PaperApps builds the six schedulability-layer applications from Table I
// under the chosen dwell model kind.
func PaperApps(kind core.ModelKind) ([]*sched.App, error) {
	rows := TableI()
	apps := make([]*sched.App, 0, len(rows))
	for _, r := range rows {
		var m *pwl.Model
		var err error
		switch kind {
		case core.NonMonotonic:
			m, err = pwl.PaperNonMonotonic(r.XiTT, r.Kp, r.XiM, r.XiET)
		case core.ConservativeMonotonic:
			m, err = pwl.PaperConservative(r.Kp, r.XiM, r.XiET)
		case core.SimpleMonotonic:
			m, err = pwl.SimpleMonotonic(r.XiTT, r.XiET)
		default:
			err = fmt.Errorf("casestudy: unsupported model kind %v", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("casestudy: %s: %w", r.Name, err)
		}
		apps = append(apps, &sched.App{Name: r.Name, R: r.R, Deadline: r.Xid, Model: m})
	}
	return apps, nil
}

// PaperAllocation allocates the Table I applications to TT slots.
func PaperAllocation(ctx context.Context, kind core.ModelKind, policy sched.Policy, method sched.Method) (*sched.Allocation, error) {
	apps, err := PaperApps(kind)
	if err != nil {
		return nil, err
	}
	return sched.AllocateContext(ctx, apps, policy, method)
}

// SlotComparison is the paper's headline result.
type SlotComparison struct {
	NonMonotonicSlots int
	ConservativeSlots int
	ExtraPercent      float64 // (cons − nonmono) / nonmono × 100
}

// ComparePaperSlotCounts reproduces the §V resource-dimensioning result.
func ComparePaperSlotCounts(ctx context.Context, policy sched.Policy, method sched.Method) (*SlotComparison, error) {
	nm, err := PaperAllocation(ctx, core.NonMonotonic, policy, method)
	if err != nil {
		return nil, err
	}
	cons, err := PaperAllocation(ctx, core.ConservativeMonotonic, policy, method)
	if err != nil {
		return nil, err
	}
	c := &SlotComparison{
		NonMonotonicSlots: nm.NumSlots(),
		ConservativeSlots: cons.NumSlots(),
	}
	if c.NonMonotonicSlots > 0 {
		c.ExtraPercent = 100 * float64(c.ConservativeSlots-c.NonMonotonicSlots) / float64(c.NonMonotonicSlots)
	}
	return c, nil
}

// WalkthroughValue is one quoted number of the §V walk-through.
type WalkthroughValue struct {
	Label string
	Got   float64
	Paper float64
}

// Walkthrough recomputes every §V quoted value from the Table I inputs.
func Walkthrough() ([]WalkthroughValue, error) {
	apps, err := PaperApps(core.NonMonotonic)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*sched.App, len(apps))
	for _, a := range apps {
		byName[a.Name] = a
	}
	slot1 := []*sched.App{byName["C3"], byName["C6"]}
	results, _, err := sched.AnalyzeSlot(slot1, sched.ClosedForm)
	if err != nil {
		return nil, err
	}
	var out []WalkthroughValue
	for _, r := range results {
		switch r.App.Name {
		case "C6":
			out = append(out,
				WalkthroughValue{"k̂wait,6 (C6 with C3 on S1)", r.MaxWait, 0.669},
				WalkthroughValue{"ξ̂6", r.WCRT, 1.589})
		case "C3":
			out = append(out,
				WalkthroughValue{"k̂wait,3 (C3 with C6 on S1)", r.MaxWait, 0.92},
				WalkthroughValue{"ξ̂3", r.WCRT, 1.515})
		}
	}
	// Monotonic walk-through: C2 with C4 on one slot.
	consApps, err := PaperApps(core.ConservativeMonotonic)
	if err != nil {
		return nil, err
	}
	byNameC := make(map[string]*sched.App, len(consApps))
	for _, a := range consApps {
		byNameC[a.Name] = a
	}
	slotC := []*sched.App{byNameC["C2"], byNameC["C4"]}
	resultsC, _, err := sched.AnalyzeSlot(slotC, sched.ClosedForm)
	if err != nil {
		return nil, err
	}
	for _, r := range resultsC {
		if r.App.Name == "C2" {
			out = append(out,
				WalkthroughValue{"k̂′wait,2 (C2 with C4, monotonic)", r.MaxWait, 4.94},
				WalkthroughValue{"ξ̂′2", r.WCRT, 6.426})
		}
	}
	return out, nil
}

// fleetSpec pairs a Table I row with a concrete plant and disturbance.
type fleetSpec struct {
	row     Row
	plant   string
	x0      []float64
	eth     float64
	frameID int
	// oscillatory ET designs get a complex pole pair at the plant's
	// natural frequency; others use real poles.
	etOmega float64
}

// fleet maps the six Table I applications onto concrete automotive plants.
// Frame IDs follow priority order (C3 highest). Disturbances are impulsive
// velocity kicks (shocks), which exercise the Fig.-3 mechanism: the ET
// phase converts cheap velocity error into expensive position error. The
// suspension keeps a lightly-damped ET pair at its natural frequency; the
// drift-dominated plants use real ET poles (a slow oscillatory ET design on
// those plants amplifies the non-normal transient far beyond the paper's
// dwell peaks).
func fleetSpecs() []fleetSpec {
	return []fleetSpec{
		{TableI()[0], "lane", []float64{0, 1.5}, 0.1, 6, 0},
		{TableI()[1], "dcmotor", []float64{0, 2.0}, 0.1, 3, 0},
		{TableI()[2], "servo", []float64{0, 2.0}, 0.1, 1, 0},
		{TableI()[3], "suspension", []float64{0, 0.8}, 0.05, 4, 7.3},
		{TableI()[4], "cruise", []float64{0, 2.0}, 0.1, 5, 0},
		{TableI()[5], "throttle", []float64{0, 2.0}, 0.1, 2, 0},
	}
}

// FleetContext builds the six measured-mode applications with controllers
// calibrated so that (ξTT, ξET) approach the Table I targets. Each
// application's calibration search is independent, so the six run across
// the shared bounded worker pool, with per-application failures
// aggregated. A ctx expiry aborts the in-flight searches promptly and
// returns ctx.Err().
func FleetContext(ctx context.Context) ([]*core.Application, error) {
	specs := fleetSpecs()
	apps := make([]*core.Application, len(specs))
	// Resolve every plant before spawning anything, so an unknown plant
	// cannot strand calibration work behind an early return.
	for i, s := range specs {
		app, err := s.application()
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	errs := make([]error, len(specs))
	ferr := conc.ForEachCtx(ctx, len(specs), 0, func(i int) error {
		errs[i] = specs[i].calibrate(ctx, apps[i])
		return nil // per-app failures are aggregated, not dispatch-stopping
	})
	if ferr != nil {
		return nil, ferr
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return apps, nil
}

// FleetAppContext builds and calibrates the one measured-mode application
// named name (C1…C6) exactly as FleetContext does, and alone: what a
// caller timing or counting one calibration needs.
func FleetAppContext(ctx context.Context, name string) (*core.Application, error) {
	for _, s := range fleetSpecs() {
		if s.row.Name != name {
			continue
		}
		app, err := s.application()
		if err != nil {
			return nil, err
		}
		if err := s.calibrate(ctx, app); err != nil {
			return nil, err
		}
		return app, nil
	}
	return nil, fmt.Errorf("casestudy: no measured-mode application %q", name)
}

// application builds the spec's uncalibrated application.
func (s fleetSpec) application() (*core.Application, error) {
	plant, ok := plants.All()[s.plant]
	if !ok {
		return nil, fmt.Errorf("casestudy: unknown plant %q", s.plant)
	}
	return &core.Application{
		Name:     s.row.Name,
		Plant:    plant,
		H:        0.020,
		DelayTT:  0.002,
		DelayET:  0.020,
		Eth:      s.eth,
		X0:       append([]float64(nil), s.x0...),
		R:        s.row.R,
		Deadline: s.row.Xid,
		FrameID:  s.frameID,
	}, nil
}

// calibrate calibrates app, built by application, against the spec's
// Table I targets.
func (s fleetSpec) calibrate(ctx context.Context, app *core.Application) error {
	if err := Calibrate(ctx, app, s.row.XiTT, s.row.XiET, s.etOmega); err != nil {
		return fmt.Errorf("casestudy: %s: %w", s.row.Name, err)
	}
	return nil
}

// Calibrate binary-searches the dominant closed-loop pole radii of app so
// the pure-mode settling times approach (targetTT, targetET), within one
// sampling period or 5%, whichever is looser. etOmega > 0 gives the ET
// design a lightly-damped complex pole pair at that natural frequency
// (rad/s) instead of real poles. On success app.PolesTT/PolesET hold the
// calibrated designs; probes never mutate app until then. A ctx expiry
// aborts the search promptly with an error unwrapping to ctx.Err().
//
// Exported so the cpsdynd /v1/calibrate endpoint can own the measured-mode
// workflow end to end.
func Calibrate(ctx context.Context, app *core.Application, targetTT, targetET, etOmega float64) error {
	// The pole sets, written into p.
	ttPoles := func(p []complex128, rho float64) []complex128 {
		p[0], p[1], p[2] = complex(rho, 0), complex(0.85*rho, 0), 0.05
		return p
	}
	etPoles := func(p []complex128, rho float64) []complex128 {
		if etOmega > 0 {
			z := cmplx.Rect(rho, etOmega*app.H)
			p[0], p[1], p[2] = z, cmplx.Conj(z), 0.1
			return p
		}
		p[0], p[1], p[2] = complex(rho, 0), complex(0.92*rho, 0), 0.1
		return p
	}
	// Probes run on one private shallow copy with its own pole sets, so
	// app keeps its designs until both searches succeed, and build and
	// walk in one workspace. TT first, with the ET design fixed at a safe
	// slow default, then ET, with the TT design fixed at the result. Each
	// probe builds, checks and walks only the loop it searches, and the
	// fixed ET loop is checked once, before the TT search: when it fails,
	// every probe of a search that walked both loops failed with it, so
	// the search ends as such a search ended. The TT loop fixed in the ET
	// search is one the TT search walked successfully.
	var ws core.ProbeWorkspace
	probe := *app
	probe.PolesTT, probe.PolesET = make([]complex128, 3), make([]complex128, 3)
	ttPoles(probe.PolesTT, 0.95)
	etPoles(probe.PolesET, 0.95)
	if _, err := probe.ProbeSettleContext(ctx, core.LoopET, &ws); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("TT calibration: %w", ctxErr)
		}
		return fmt.Errorf("TT calibration: %w", noDesign(targetTT))
	}
	rhoTT, err := searchRho(ctx, func(ctx context.Context, rho float64) (float64, error) {
		ttPoles(probe.PolesTT, rho)
		return probe.ProbeSettleContext(ctx, core.LoopTT, &ws)
	}, targetTT, app.H)
	if err != nil {
		return fmt.Errorf("TT calibration: %w", err)
	}
	ttPoles(probe.PolesTT, rhoTT)
	rhoET, err := searchRho(ctx, func(ctx context.Context, rho float64) (float64, error) {
		etPoles(probe.PolesET, rho)
		return probe.ProbeSettleContext(ctx, core.LoopET, &ws)
	}, targetET, app.H)
	if err != nil {
		return fmt.Errorf("ET calibration: %w", err)
	}
	app.PolesTT = ttPoles(make([]complex128, 3), rhoTT)
	app.PolesET = etPoles(make([]complex128, 3), rhoET)
	return nil
}

// noDesign is a search's error when no probe succeeded.
func noDesign(target float64) error {
	return fmt.Errorf("no stabilising design found for target %.3f s", target)
}

// searchRho binary-searches a pole radius in (0.30, 0.9995) so that the
// measured settling time approaches the target. Settling time increases
// with the radius; non-monotone wiggles from transient humps are absorbed
// by the tolerance. ctx is checked before every probe, so an expiry stops
// the search within one probe.
func searchRho(ctx context.Context, measure func(ctx context.Context, rho float64) (float64, error), target, h float64) (float64, error) {
	lo, hi := 0.30, 0.9995
	var best float64 = math.NaN()
	bestErr := math.Inf(1)
	const steps = 40
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		mid := (lo + hi) / 2
		got, err := measure(ctx, mid)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return 0, ctxErr
			}
			// Too aggressive a design can fail (e.g. numerically huge
			// gains); retreat towards slower poles.
			lo = mid
			continue
		}
		if diff := math.Abs(got - target); diff < bestErr {
			best, bestErr = mid, diff
		}
		if math.Abs(got-target) <= math.Max(h, 0.05*target) {
			return mid, nil
		}
		if got > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	if math.IsNaN(best) {
		return 0, noDesign(target)
	}
	return best, nil
}

// DeriveFleetContext calibrates and derives all six measured-mode
// applications through the concurrent fleet engine: both the calibration
// searches and the fleet derivation honour ctx. Table I and Fig. 5 both
// read this one fleet; callers derive it once and pass it on.
func DeriveFleetContext(ctx context.Context) ([]*core.Derived, error) {
	apps, err := FleetContext(ctx)
	if err != nil {
		return nil, err
	}
	return core.DeriveFleet(ctx, apps)
}

// Table1Comparison pairs the paper's Table I with the measured rows.
type Table1Comparison struct {
	Paper    []Row
	Measured []core.TimingRow
}

// RunTable1 pairs the paper's Table I with the timing rows of the measured
// fleet (see DeriveFleetContext).
func RunTable1(fleet []*core.Derived) *Table1Comparison {
	out := &Table1Comparison{Paper: TableI()}
	for _, d := range fleet {
		out.Measured = append(out.Measured, d.TimingRow())
	}
	return out
}

// Fig5Result bundles the measured-mode §V artefacts: the allocation and the
// event-level simulation traces.
type Fig5Result struct {
	Fleet      []*core.Derived
	Allocation *sched.Allocation
	Sim        *sim.Result
}

// Fig5Plan is the Fig.-5 co-simulation scenario: the case-study FlexRay bus,
// every disturbance injected at t = 0, 14 s of simulated time. Exported so
// runnable front ends reproduce exactly the scenario the §V test exercises.
func Fig5Plan() core.SimPlan {
	return core.SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     14,
		JitterBuffer: true,
		DisturbAllAt: 0,
	}
}

// RunFig5 allocates the measured fleet (see DeriveFleetContext) under the
// non-monotonic model and runs the all-disturbances-at-t-0 FlexRay
// co-simulation of Fig. 5.
func RunFig5(ctx context.Context, fleet []*core.Derived) (*Fig5Result, error) {
	alloc, err := core.AllocateSlots(ctx, fleet, core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		return nil, err
	}
	res, err := core.Verify(fleet, alloc, Fig5Plan())
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Fleet: fleet, Allocation: alloc, Sim: res}, nil
}
