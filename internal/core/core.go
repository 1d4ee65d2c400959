// Package core is the public façade of the library. It wires the full
// pipeline of the paper together:
//
//	plant + timing  ──DeriveContext──▶  ET/TT controllers, switched closed loops,
//	                                    sampled dwell/wait curve, safe PWL models
//	                ──AllocateSlots──▶  minimum TT slots (schedulability analysis)
//	                ──BuildSim───────▶  FlexRay co-simulation of the Fig.-1 protocol
//
// A downstream user describes each control application once (Application),
// derives its timing artefacts (Derived), allocates TT slots for the fleet,
// and verifies the allocation in the event-level simulator.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"cpsdyn/internal/control"
	"cpsdyn/internal/flexray"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/sim"
	"cpsdyn/internal/switching"
)

// Application is the user-facing description of one distributed control
// application: the physical plant, its sampling and communication timing,
// the disturbance model, and the controller-design specification.
// All times are in seconds.
type Application struct {
	Name  string
	Plant *lti.Continuous

	H       float64 // sampling period
	DelayTT float64 // design sensor-to-actuator delay over the TT slot
	DelayET float64 // design worst-case delay over ET communication

	Eth float64   // steady-state threshold on ‖x‖ (plant states)
	X0  []float64 // canonical post-disturbance plant state

	R        float64 // minimum disturbance inter-arrival time
	Deadline float64 // desired response time ξd (also the priority)

	FrameID int // dynamic-segment frame ID (ET priority); must be unique

	// Controller design: either place poles directly (length n+1 each, on
	// the delay-augmented loop) or leave nil to use LQR with the Q*/R*
	// weights (nil weights fall back to identity-style defaults).
	PolesTT, PolesET []complex128
	QTT, RTT         *mat.Matrix
	QET, RET         *mat.Matrix
}

// CloneShallow returns a copy of the application description. Matrices
// and slices are shared with the original, so callers overwrite whole
// fields on the copy rather than mutating shared contents.
func (a *Application) CloneShallow() *Application {
	c := *a
	return &c
}

// Validate checks the application description. The comparisons are
// written so that NaN fails them; h, the delays, Eth, X0, the poles and
// the LQR weights must also be finite, while r and the deadline follow
// sched.App: an infinite r is allowed.
func (a *Application) Validate() error {
	if a.Plant == nil {
		return fmt.Errorf("core: app %q: no plant", a.Name)
	}
	if err := a.Plant.Validate(); err != nil {
		return fmt.Errorf("core: app %q: %w", a.Name, err)
	}
	if a.Plant.Inputs() != 1 {
		return fmt.Errorf("core: app %q: only single-input plants are supported", a.Name)
	}
	if !(a.H > 0) {
		return fmt.Errorf("core: app %q: sampling period %g must be positive", a.Name, a.H)
	}
	if math.IsInf(a.H, 1) {
		return fmt.Errorf("core: app %q: sampling period %g must be finite", a.Name, a.H)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"DelayTT", a.DelayTT}, {"DelayET", a.DelayET}} {
		if !(d.v >= 0 && d.v <= a.H) {
			return fmt.Errorf("core: app %q: %s = %g outside [0, h=%g]", a.Name, d.name, d.v, a.H)
		}
	}
	if a.DelayTT >= a.DelayET {
		return fmt.Errorf("core: app %q: DelayTT (%g) should be smaller than DelayET (%g) — that asymmetry is the point of TT slots",
			a.Name, a.DelayTT, a.DelayET)
	}
	if !(a.Eth > 0) {
		return fmt.Errorf("core: app %q: threshold Eth must be positive", a.Name)
	}
	if len(a.X0) != a.Plant.Order() {
		return fmt.Errorf("core: app %q: X0 has %d entries, want %d", a.Name, len(a.X0), a.Plant.Order())
	}
	if !mat.VecIsFinite(a.X0) {
		return fmt.Errorf("core: app %q: X0 = %v must be finite", a.Name, a.X0)
	}
	// An infinite Eth fails here too: no finite state exceeds it.
	if !(mat.VecNorm2(a.X0) > a.Eth) {
		return fmt.Errorf("core: app %q: ‖X0‖ = %g must exceed Eth = %g (otherwise there is nothing to reject)",
			a.Name, mat.VecNorm2(a.X0), a.Eth)
	}
	if !(a.R > 0) || !(a.Deadline > 0) || a.Deadline > a.R {
		return fmt.Errorf("core: app %q: need 0 < ξd (%g) ≤ r (%g)", a.Name, a.Deadline, a.R)
	}
	for _, ps := range [][]complex128{a.PolesTT, a.PolesET} {
		for _, p := range ps {
			if cmplx.IsNaN(p) || cmplx.IsInf(p) {
				return fmt.Errorf("core: app %q: pole %v must be finite", a.Name, p)
			}
		}
	}
	for _, w := range []*mat.Matrix{a.QTT, a.RTT, a.QET, a.RET} {
		if w != nil && !w.IsFinite() {
			return fmt.Errorf("core: app %q: LQR weights must be finite", a.Name)
		}
	}
	if a.FrameID < 1 {
		return fmt.Errorf("core: app %q: frame ID %d must be ≥ 1", a.Name, a.FrameID)
	}
	return nil
}

// Derived bundles everything computed from an Application. Every field
// but App is shared, read-only, with the other applications of the same
// CacheKey; Sys is therefore unnamed.
type Derived struct {
	App            *Application
	DiscTT, DiscET *lti.Discrete
	KTT, KET       *mat.Matrix
	Sys            *switching.System // A1 = ET loop, A2 = TT loop (augmented)
	Curve          *switching.Curve
	NonMono        *pwl.Model
	Conservative   *pwl.Model
	Simple         *pwl.Model
}

// DeriveContext designs both controllers, forms the switched closed
// loops, samples the dwell/wait curve and fits the three §III models.
//
// The result, App aside, depends only on the inputs CacheKey covers, so it
// is memoised once per key in a shared thread-safe cache, above the
// memoised discretisations and dwell curve it is built from: repeated
// derivations of identical plants (fleets reuse a few plant models
// heavily) are one key build and one lookup; see DeriveFleet for the
// concurrent fleet entry point. DeriveContext keeps no state on the
// Application: every call validates, builds the key and returns a fresh
// Derived, also for an Application it derived before. The cached values
// are shared between Derived values and must not be mutated. On a cache
// miss the dwell-curve sampling itself fans out across the worker pool
// configured by SetCurveSamplingWorkers.
//
// When ctx expires, the in-flight matrix work stops promptly and the
// error unwraps to ctx.Err(). A cancelled derivation never poisons the
// shared cache — concurrent derivations of the same artefacts with live
// contexts retake the computation. Errors name this application, also
// when the failed computation was shared with (and run by) a concurrent
// one.
func (a *Application) DeriveContext(ctx context.Context) (*Derived, error) {
	defer obs.DeriveRowLatency.Since(time.Now())
	if err := a.Validate(); err != nil {
		return nil, err
	}
	v, err := deriveCache.getMemory(ctx, a.CacheKey(), func(ctx context.Context) (any, error) {
		return a.derivation(ctx)
	})
	if err != nil {
		return nil, a.nameError(err)
	}
	d := *v.(*Derived)
	d.App = a
	return &d, nil
}

// derivation computes the name-free bundle DeriveContext caches under
// a.CacheKey(): everything of a Derived but App, from nothing but the
// inputs the key covers. Its errors carry no app name either (see
// nameError), because every concurrent derivation of the key shares them.
// When both loops fail, a failed discretisation comes first, the TT
// loop's before the ET loop's, and then a failed gain design, the TT
// loop's first.
func (a *Application) derivation(ctx context.Context) (*Derived, error) {
	// The Derived keeps both loops' gains and matrices, so each is built in
	// fresh ones; only Ackermann's scratch is shared.
	var ack control.AckermannWorkspace
	tt, errTT := a.buildLoop(ctx, LoopTT, new(loopMatrices), &ack)
	if errTT != nil && !isControllerError(errTT) {
		return nil, errTT
	}
	et, errET := a.buildLoop(ctx, LoopET, new(loopMatrices), &ack)
	switch {
	case errET != nil && !isControllerError(errET):
		return nil, errET
	case errTT != nil:
		return nil, errTT
	case errET != nil:
		return nil, errET
	}
	d := &Derived{
		DiscTT: tt.disc, DiscET: et.disc,
		KTT: tt.k, KET: et.k,
		Sys: a.system(et.a, tt.a),
	}
	var err error
	if d.Curve, err = cachedSampleCurve(ctx, d.Sys, 0); err != nil {
		return nil, err
	}
	if d.NonMono, d.Conservative, d.Simple, err = d.Curve.FitModels(); err != nil {
		return nil, err
	}
	return d, nil
}

// Loop names one of an application's two closed loops.
type Loop int

const (
	// LoopTT is the loop closed over the TT slot: DelayTT and PolesTT
	// (or QTT, RTT).
	LoopTT Loop = iota
	// LoopET is the loop closed over ET communication: DelayET and
	// PolesET (or QET, RET).
	LoopET
)

// String returns "TT" or "ET".
func (l Loop) String() string {
	if l == LoopET {
		return "ET"
	}
	return "TT"
}

// closedLoop is one closed loop of an application: its discretisation,
// the gain designed on it and the augmented closed-loop matrix.
type closedLoop struct {
	disc *lti.Discrete
	k, a *mat.Matrix
}

// loopMatrices holds the matrices buildLoop builds one closed loop in:
// the augmented pair, the pole-placement gain and the closed loop.
type loopMatrices struct{ abar, bbar, k, cl *mat.Matrix }

// fit sizes m for a plant of order n with inputs inputs, keeping the
// matrices when they already fit.
func (m *loopMatrices) fit(n, inputs int) {
	if m.abar == nil || m.abar.Rows() != n+inputs || m.bbar.Cols() != inputs {
		m.abar, m.bbar = mat.New(n+inputs, n+inputs), mat.New(n+inputs, inputs)
		m.k, m.cl = mat.New(inputs, n+inputs), mat.New(n+inputs, n+inputs)
	}
}

// buildLoop builds closed loop l in m, designing a placed gain in ack: the
// cached discretisation, the gain (a failed design is a *controllerError)
// and the closed loop, which cannot fail on a gain designGain returned.
// The result's gain and loop are m's matrices (an LQR gain is its own). It
// reads only inputs the CacheKey covers, and its errors carry no app name.
func (a *Application) buildLoop(ctx context.Context, l Loop, m *loopMatrices, ack *control.AckermannWorkspace) (closedLoop, error) {
	delay, poles, q, r := a.DelayTT, a.PolesTT, a.QTT, a.RTT
	if l == LoopET {
		delay, poles, q, r = a.DelayET, a.PolesET, a.QET, a.RET
	}
	disc, err := cachedDiscretize(ctx, a.Plant, a.H, delay)
	if err != nil {
		return closedLoop{}, err
	}
	m.fit(disc.Order(), disc.Inputs())
	disc.AugmentedTo(m.abar, m.bbar)
	k, err := a.designGain(m, ack, poles, q, r)
	if err != nil {
		return closedLoop{}, &controllerError{loop: l.String(), err: err}
	}
	if err := disc.ClosedLoopTo(m.cl, k, m.abar, m.bbar); err != nil {
		return closedLoop{}, err
	}
	return closedLoop{disc: disc, k: k, a: m.cl}, nil
}

// system is the name-free switched system of the closed loops a1 (ET) and
// a2 (TT) on the delay-augmented state.
func (a *Application) system(a1, a2 *mat.Matrix) *switching.System {
	s := new(switching.System)
	a.fillSystem(s, make([]float64, a.Plant.Order()+1), a1, a2)
	return s
}

// fillSystem sets s to the name-free switched system of the loops a1 (ET)
// and a2 (TT): x0 (held in buffer x0, of the augmented order) with a zero
// held input, the threshold on the plant states.
func (a *Application) fillSystem(s *switching.System, x0 []float64, a1, a2 *mat.Matrix) {
	n := copy(x0, a.X0)
	clear(x0[n:])
	*s = switching.System{
		A1:       a1,
		A2:       a2,
		X0:       x0,
		Eth:      a.Eth,
		NormDims: a.Plant.Order(),
		H:        a.H,
	}
}

// controllerError is a gain-design failure inside the shared derivation.
type controllerError struct {
	loop string // "TT" or "ET"
	err  error
}

func (e *controllerError) Error() string { return e.loop + " controller: " + e.err.Error() }

func (e *controllerError) Unwrap() error { return e.err }

// isControllerError reports whether err is a gain-design failure.
func isControllerError(err error) bool {
	_, ok := err.(*controllerError)
	return ok
}

// nameError renders a failure of the shared, name-free derivation as this
// application's own: the message an unshared derivation of a would give.
// Every other failure names only the plant, which the key covers.
func (a *Application) nameError(err error) error {
	switch e := err.(type) {
	case *controllerError:
		return fmt.Errorf("core: app %q %s controller: %w", a.Name, e.loop, e.err)
	case *switching.Error:
		if e.System == "" {
			return &switching.Error{System: a.Name, Err: e.Err}
		}
	}
	return err
}

// designGain builds one state-feedback gain on the augmented pair of m:
// pole placement into m.k (designed in ack) when poles are given, LQR
// otherwise.
func (a *Application) designGain(m *loopMatrices, ack *control.AckermannWorkspace, poles []complex128, q, r *mat.Matrix) (*mat.Matrix, error) {
	abar, bbar := m.abar, m.bbar
	if len(poles) > 0 {
		if err := control.AckermannTo(m.k, abar, bbar, poles, ack); err != nil {
			return nil, err
		}
		return m.k, nil
	}
	n := abar.Rows()
	if q == nil {
		q = mat.Identity(n)
		q.Set(n-1, n-1, 1e-4) // light weight on the held-input state
	}
	if r == nil {
		r = mat.Identity(1)
	}
	k, _, err := control.LQR(abar, bbar, q, r)
	return k, err
}

// ProbeWorkspace holds what a settling probe builds and walks its loop in:
// the loop's matrices, Ackermann's scratch, the walk's buffers and the
// probe's switched system. casestudy.Calibrate passes one to every probe
// of its searches, so a probe allocates almost nothing once the first has
// sized it. The zero value is ready to use; a ProbeWorkspace is not safe
// for concurrent use.
type ProbeWorkspace struct {
	loop loopMatrices
	ack  control.AckermannWorkspace
	walk switching.Workspace
	sys  switching.System
	x0   []float64
}

// ProbeSettleContext designs the controller of loop l alone and returns
// that loop's pure-mode settling time in seconds (ξTT or ξET), without the
// other loop or the dwell curve. It is the cheap inner loop for
// calibrating controller designs against target response times (as the
// case study does to approach Table I): one discretisation, one gain
// design, one stop certificate (and a stability check only for a loop it
// does not certify) and one certified walk, all in ws. The whole
// application is validated, the other loop's design included, but only
// loop l is built. A calibration search under a compute budget stops its
// settling simulation the moment ctx expires.
func (a *Application) ProbeSettleContext(ctx context.Context, l Loop, ws *ProbeWorkspace) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	cl, err := a.buildLoop(ctx, l, &ws.loop, &ws.ack)
	if err != nil {
		return 0, err
	}
	n := cl.a.Rows()
	if cap(ws.x0) < n {
		ws.x0 = make([]float64, n)
	}
	loop := "TT loop"
	if l == LoopET {
		loop = "ET loop"
		a.fillSystem(&ws.sys, ws.x0[:n], cl.a, nil)
	} else {
		a.fillSystem(&ws.sys, ws.x0[:n], nil, cl.a)
	}
	ws.sys.Name = a.Name
	const horizon = 60000
	k, ok, err := ws.sys.ProbeSteps(ctx, loop, cl.a, horizon, &ws.walk)
	if err != nil {
		return 0, probeError(a.Name, err)
	}
	if !ok {
		return 0, fmt.Errorf("core: app %q: %s loop did not settle within the probe horizon", a.Name, l)
	}
	return float64(k) * a.H, nil
}

// probeError renders a failed settling probe of app name: a failed check
// or an overflowed walk keeps its *switching.Error, which names the app
// (and the loop, for an overflow); anything else is the context's
// cancellation.
func probeError(name string, err error) error {
	var se *switching.Error
	if errors.As(err, &se) {
		return err
	}
	return fmt.Errorf("core: app %q: probe cancelled: %w", name, err)
}

// ModelKind selects which §III dwell model drives the analysis.
type ModelKind int

const (
	// NonMonotonic is the paper's two-segment model (the contribution).
	NonMonotonic ModelKind = iota
	// ConservativeMonotonic is the safe single-segment baseline.
	ConservativeMonotonic
	// SimpleMonotonic is prior work's UNSAFE straight-line assumption;
	// allocation under it may violate deadlines. Provided for the ablation.
	SimpleMonotonic
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case NonMonotonic:
		return "non-monotonic"
	case ConservativeMonotonic:
		return "conservative-monotonic"
	case SimpleMonotonic:
		return "simple-monotonic"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// Model returns the fitted model of the given kind.
func (d *Derived) Model(kind ModelKind) (*pwl.Model, error) {
	switch kind {
	case NonMonotonic:
		return d.NonMono, nil
	case ConservativeMonotonic:
		return d.Conservative, nil
	case SimpleMonotonic:
		return d.Simple, nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(kind))
	}
}

// SchedApp bridges to the schedulability layer with the chosen model.
func (d *Derived) SchedApp(kind ModelKind) (*sched.App, error) {
	m, err := d.Model(kind)
	if err != nil {
		return nil, err
	}
	return &sched.App{
		Name:     d.App.Name,
		R:        d.App.R,
		Deadline: d.App.Deadline,
		Model:    m,
	}, nil
}

// TimingRow is one Table-I-style row derived from measurements.
type TimingRow struct {
	Name     string
	R        float64 // r_i
	Deadline float64 // ξd_i
	XiTT     float64 // pure-TT response time
	XiET     float64 // pure-ET response time
	XiM      float64 // peak dwell of the non-monotonic model
	Kp       float64 // wait time at the model peak
	XiPrimeM float64 // peak dwell (intercept) of the conservative model
}

// TimingRow summarises the derived timing parameters.
func (d *Derived) TimingRow() TimingRow {
	return TimingRow{
		Name:     d.App.Name,
		R:        d.App.R,
		Deadline: d.App.Deadline,
		XiTT:     d.Curve.XiTT,
		XiET:     d.Curve.XiET,
		XiM:      d.NonMono.MaxDwell(),
		Kp:       d.NonMono.PeakWait(),
		XiPrimeM: d.Conservative.MaxDwell(),
	}
}

// AllocateSlots runs the §IV analysis for the fleet under the chosen model
// kind, allocation policy and wait-time method; ctx reaches the search
// of sched.AllocateContext.
func AllocateSlots(ctx context.Context, fleet []*Derived, kind ModelKind, policy sched.Policy, method sched.Method) (*sched.Allocation, error) {
	apps, err := schedApps(fleet, kind)
	if err != nil {
		return nil, err
	}
	return sched.AllocateContext(ctx, apps, policy, method)
}

// SimPlan configures the verification co-simulation.
type SimPlan struct {
	Bus          flexray.Config
	Duration     float64 // seconds
	JitterBuffer bool
	// DisturbAllAt injects every app's canonical disturbance at this time
	// (seconds); negative disables. Additional disturbances can be added on
	// the returned sim.Config directly.
	DisturbAllAt float64
	// Periodic additionally re-injects each app's disturbance every R_i
	// seconds after DisturbAllAt — the paper's periodic disturbance model
	// with minimum inter-arrival time r_i (§II-C). Requires
	// DisturbAllAt ≥ 0.
	Periodic bool
}

// BuildSim assembles the event-level simulation for a fleet and its slot
// allocation. Slot s of the allocation maps to static slot s of the bus.
func BuildSim(fleet []*Derived, alloc *sched.Allocation, plan SimPlan) (*sim.Config, error) {
	if alloc.NumSlots() > plan.Bus.StaticSlots {
		return nil, fmt.Errorf("core: allocation needs %d TT slots but the bus has %d static slots",
			alloc.NumSlots(), plan.Bus.StaticSlots)
	}
	cfg := &sim.Config{
		Bus:          plan.Bus,
		Duration:     secToNS(plan.Duration),
		JitterBuffer: plan.JitterBuffer,
	}
	for _, d := range fleet {
		slot := alloc.SlotOf(d.App.Name)
		if slot < 0 {
			return nil, fmt.Errorf("core: app %q missing from the allocation", d.App.Name)
		}
		cfg.Apps = append(cfg.Apps, &sim.AppConfig{
			Name:     d.App.Name,
			Plant:    d.App.Plant,
			KTT:      d.KTT,
			KET:      d.KET,
			Eth:      d.App.Eth,
			X0:       append([]float64(nil), d.App.X0...),
			H:        secToNS(d.App.H),
			R:        secToNS(d.App.R),
			Deadline: secToNS(d.App.Deadline),
			FrameID:  d.App.FrameID,
			Slot:     slot,
			DelayTT:  secToNS(d.App.DelayTT),
			DelayET:  secToNS(d.App.DelayET),
		})
		if plan.DisturbAllAt >= 0 {
			cfg.Disturbances = append(cfg.Disturbances, sim.Disturbance{
				App:  d.App.Name,
				Time: secToNS(plan.DisturbAllAt),
			})
			if plan.Periodic {
				for t := plan.DisturbAllAt + d.App.R; t < plan.Duration; t += d.App.R {
					cfg.Disturbances = append(cfg.Disturbances, sim.Disturbance{
						App:  d.App.Name,
						Time: secToNS(t),
					})
				}
			}
		}
	}
	return cfg, nil
}

// Verify runs the co-simulation and checks every measured response time
// against both the deadline and the analytical worst case implied by the
// allocation's models. It returns the simulation result for plotting.
func Verify(fleet []*Derived, alloc *sched.Allocation, plan SimPlan) (*sim.Result, error) {
	cfg, err := BuildSim(fleet, alloc, plan)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(*cfg)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	// Analytical WCRTs per app.
	wcrt := make(map[string]float64)
	for s := range alloc.Slots {
		results, _, err := sched.AnalyzeSlot(alloc.Slots[s], alloc.Method)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			wcrt[r.App.Name] = r.WCRT
		}
	}
	for _, d := range fleet {
		ar, ok := res.Apps[d.App.Name]
		if !ok {
			return nil, fmt.Errorf("core: app %q missing from simulation result", d.App.Name)
		}
		for i, rt := range ar.ResponseTimes {
			if rt < 0 {
				return nil, fmt.Errorf("core: app %q disturbance %d never settled", d.App.Name, i)
			}
			rtSec := float64(rt) / 1e9
			if rtSec > d.App.Deadline+1e-9 {
				return nil, fmt.Errorf("core: app %q missed its deadline: %.3f s > %.3f s",
					d.App.Name, rtSec, d.App.Deadline)
			}
			if w, ok := wcrt[d.App.Name]; ok && !math.IsInf(w, 1) && rtSec > w+2*d.App.H {
				return nil, fmt.Errorf("core: app %q measured response %.3f s exceeds analytical bound %.3f s",
					d.App.Name, rtSec, w)
			}
		}
	}
	return res, nil
}

func secToNS(s float64) int64 { return int64(math.Round(s * 1e9)) }
