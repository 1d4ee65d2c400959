// Package sched implements §IV of the paper: schedulability analysis for
// control applications sharing TT slots non-preemptively, and allocation of
// applications to the minimum number of TT slots.
//
// When application Ci requests its slot at the critical instant, a
// lower-priority application with the largest dwell time has just taken the
// slot (non-preemption), and every higher-priority application requests as
// often as its disturbance inter-arrival time permits. The maximum wait
// time then satisfies the fixed-point equation (5)
//
//	k̂wait,i = max_{lower j} ξM_j + Σ_{higher j} ⌈k̂wait,i / r_j⌉ · ξM_j ,
//
// whose fixed point exists when the interference utilisation
// m = Σ ξM_j / r_j < 1 and is bounded by a′/(1−m) (eq. 20). The worst-case
// response time is ξ̂ = k̂wait + kdw(k̂wait) from the dwell model, and Ci is
// schedulable iff ξ̂ ≤ ξd_i.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cpsdyn/internal/pwl"
)

// App is one control application's view for schedulability analysis.
type App struct {
	Name     string
	R        float64    // minimum disturbance inter-arrival time r_i (s)
	Deadline float64    // desired response time ξd_i (s); smaller = higher priority
	Model    *pwl.Model // dwell/wait model used for both interference and response
}

// Validate checks the app's parameters, including the paper's standing
// assumption ξd ≤ r (a disturbance is rejected before the next arrives).
// NaN is not positive: a NaN deadline would scramble SortByPriority's
// order for every app, and a NaN r every wait bound.
func (a *App) Validate() error {
	if a.Model == nil {
		return fmt.Errorf("sched: app %q has no dwell model", a.Name)
	}
	if !(a.R > 0) {
		return fmt.Errorf("sched: app %q: inter-arrival time %g must be positive", a.Name, a.R)
	}
	if !(a.Deadline > 0) {
		return fmt.Errorf("sched: app %q: deadline %g must be positive", a.Name, a.Deadline)
	}
	if a.Deadline > a.R {
		return fmt.Errorf("sched: app %q: deadline %g exceeds inter-arrival time %g (paper assumes ξd ≤ r)",
			a.Name, a.Deadline, a.R)
	}
	return nil
}

// Method selects how the maximum wait time is computed.
type Method int

const (
	// ClosedForm uses the paper's upper bound k̂ = a′/(1−m) (eq. 20); this
	// is what the case study in §V uses.
	ClosedForm Method = iota
	// FixedPoint iterates eq. (5) to its least fixed point, with the
	// critical-instant convention that every higher-priority application
	// interferes at least once (max(1, ⌈k/r⌉) requests). Tighter than
	// ClosedForm, still safe.
	FixedPoint
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ClosedForm:
		return "closed-form"
	case FixedPoint:
		return "fixed-point"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrOverUtilized is returned when the higher-priority interference
// utilisation m ≥ 1, so no finite wait-time bound exists.
var ErrOverUtilized = errors.New("sched: interference utilisation m ≥ 1")

// Result is the per-application outcome of a slot analysis.
type Result struct {
	App         *App
	MaxWait     float64 // k̂wait,i
	WCRT        float64 // ξ̂i = k̂wait + modelled dwell
	Schedulable bool    // ξ̂i ≤ ξd_i
	Interferers int     // higher-priority apps on the slot
	Blocking    float64 // a: largest lower-priority ξM on the slot
}

// SortByPriority returns the apps ordered by decreasing priority (ascending
// deadline; ties broken by name for determinism). The input is not mutated.
func SortByPriority(apps []*App) []*App {
	out := append([]*App(nil), apps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Deadline != out[j].Deadline {
			return out[i].Deadline < out[j].Deadline
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SlotUtilization returns Σ ξM_i / r_i over the apps: the worst-case
// fraction of time the slot is held.
func SlotUtilization(apps []*App) float64 {
	u := 0.0
	for _, a := range apps {
		u += a.Model.MaxDwell() / a.R
	}
	return u
}

// MaxWait computes k̂wait for the app at index i of the priority-sorted
// slice apps (all sharing one TT slot).
func MaxWait(apps []*App, i int, method Method) (float64, error) {
	target := apps[i]
	// Blocking: largest maximum dwell among lower-priority apps.
	a := 0.0
	for _, lp := range apps[i+1:] {
		if d := lp.Model.MaxDwell(); d > a {
			a = d
		}
	}
	// Interference from higher-priority apps.
	var sumXi, m float64
	for _, hp := range apps[:i] {
		xi := hp.Model.MaxDwell()
		sumXi += xi
		m += xi / hp.R
	}
	if m >= 1 {
		return math.Inf(1), fmt.Errorf("%w (m = %.3f for %q)", ErrOverUtilized, m, target.Name)
	}
	aPrime := a + sumXi
	bound := aPrime / (1 - m)
	if method == ClosedForm {
		return bound, nil
	}
	// Fixed-point iteration of eq. (5). Start from a′ (the critical instant
	// where the blocker and every higher-priority app hold the slot once)
	// and iterate; by the paper's monotonicity argument the sequence
	// converges, and it stays within [a, a′/(1−m)].
	k := aPrime
	for iter := 0; iter < 10000; iter++ {
		next := a
		for _, hp := range apps[:i] {
			reqs := math.Ceil(k / hp.R)
			if reqs < 1 {
				reqs = 1 // the critical-instant simultaneous request
			}
			next += reqs * hp.Model.MaxDwell()
		}
		if math.Abs(next-k) < 1e-12 {
			return next, nil
		}
		k = next
	}
	return bound, nil // fall back to the provably safe closed form
}

// AnalyzeSlot runs the schedulability analysis for all apps sharing one TT
// slot. It returns per-app results in priority order and whether every app
// meets its deadline. An ErrOverUtilized condition marks the affected app
// (and the slot) unschedulable rather than failing the analysis.
func AnalyzeSlot(apps []*App, method Method) ([]Result, bool, error) {
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, false, err
		}
	}
	sorted := SortByPriority(apps)
	results := make([]Result, len(sorted))
	allOK := true
	for i, app := range sorted {
		blocking := 0.0
		for _, lp := range sorted[i+1:] {
			if d := lp.Model.MaxDwell(); d > blocking {
				blocking = d
			}
		}
		wait, err := MaxWait(sorted, i, method)
		res := Result{App: app, MaxWait: wait, Interferers: i, Blocking: blocking}
		if err != nil {
			if !errors.Is(err, ErrOverUtilized) {
				return nil, false, err
			}
			res.WCRT = math.Inf(1)
			res.Schedulable = false
		} else {
			res.WCRT = app.Model.WorstResponse(wait)
			res.Schedulable = res.WCRT <= app.Deadline+1e-12
		}
		if !res.Schedulable {
			allOK = false
		}
		results[i] = res
	}
	return results, allOK, nil
}

// SlotSchedulable reports whether the given set of apps can share one TT
// slot with all deadlines met.
func SlotSchedulable(apps []*App, method Method) (bool, error) {
	_, ok, err := AnalyzeSlot(apps, method)
	return ok, err
}
