// Package service implements the long-running derivation service behind
// cmd/cpsdynd and the request codec it shares with cmd/slotalloc: JSON
// schemas for batch fleet derivation (/v1/derive) and batch TT-slot
// allocation (/v1/allocate), plus the HTTP server that keeps the
// internal/core derivation cache warm across requests.
package service

import (
	"context"
	"errors"
	"fmt"

	"cpsdyn/internal/pwl"
	"cpsdyn/internal/sched"
)

// ModelSpec is the JSON form of one §III dwell/wait model (the slotalloc
// input schema). Which parameters are required depends on Kind:
// "non-monotonic" (ξTT, kp, ξM, ξET), "conservative" (kp, ξM, ξET) and
// "simple" (ξTT, ξET; UNSAFE — allowed for comparison, flagged in output).
type ModelSpec struct {
	Kind string  `json:"kind"`
	XiTT float64 `json:"xiTT,omitempty"`
	Kp   float64 `json:"kp,omitempty"`
	XiM  float64 `json:"xiM,omitempty"`
	XiET float64 `json:"xiET,omitempty"`
}

// AppSpec is one application's schedulability view (times in seconds).
type AppSpec struct {
	Name     string    `json:"name"`
	R        float64   `json:"r"`
	Deadline float64   `json:"deadline"`
	Model    ModelSpec `json:"model"`
}

// FleetRequest is the original slotalloc input schema for one fleet:
// an allocation policy, a wait-time method and the apps to place.
type FleetRequest struct {
	Name   string    `json:"name,omitempty"`
	Policy string    `json:"policy,omitempty"`
	Method string    `json:"method,omitempty"`
	Apps   []AppSpec `json:"apps,omitempty"`
}

// AllocateRequest is the batch envelope accepted by both slotalloc and
// POST /v1/allocate: either a single fleet inline (the embedded
// FleetRequest, slotalloc's original schema) or a "fleets" array. Setting
// both is an error.
type AllocateRequest struct {
	FleetRequest
	Fleets []FleetRequest `json:"fleets,omitempty"`
}

// FleetRequests normalises the envelope into a list of fleets and reports
// whether the request used the single-fleet form. Top-level fleet fields
// (apps, policy, method, name) next to a fleets array are rejected rather
// than silently dropped — each fleet in a batch carries its own policy and
// method.
func (r *AllocateRequest) FleetRequests() ([]FleetRequest, bool, error) {
	if len(r.Fleets) > 0 {
		if len(r.Apps) > 0 || r.Policy != "" || r.Method != "" || r.Name != "" {
			return nil, false, &RequestError{Err: errors.New("request mixes top-level fleet fields with a fleets array; give each fleet its own policy/method instead")}
		}
		return r.Fleets, false, nil
	}
	return []FleetRequest{r.FleetRequest}, true, nil
}

// AppResult is one application's allocation outcome. Results are reported
// in input-app order (not slot order), so output diffs are stable across
// allocation policies.
type AppResult struct {
	Name        string  `json:"name"`
	Slot        int     `json:"slot"` // 1-based
	MaxWait     float64 `json:"maxWait"`
	WCRT        float64 `json:"wcrt"`
	Deadline    float64 `json:"deadline"`
	Schedulable bool    `json:"schedulable"`
}

// FleetResult is one fleet's allocation outcome. Error is set (and the
// other fields empty) when this fleet's allocation failed — one infeasible
// fleet never masks the results of the others in a batch.
type FleetResult struct {
	Name   string      `json:"name,omitempty"`
	Slots  int         `json:"slots"`
	Policy string      `json:"policy"`
	Method string      `json:"method"`
	Unsafe bool        `json:"unsafeModels,omitempty"`
	Apps   []AppResult `json:"apps,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// ParsePolicy maps the wire policy name to a sched.Policy; race reports
// true for the policy-race mode (sched.AllocateRace).
func ParsePolicy(s string) (p sched.Policy, race bool, err error) {
	switch s {
	case "race":
		return 0, true, nil
	case "", "first-fit":
		return sched.FirstFit, false, nil
	case "sequential":
		return sched.Sequential, false, nil
	case "best-fit":
		return sched.BestFit, false, nil
	case "exact":
		return sched.Exact, false, nil
	default:
		return 0, false, fmt.Errorf("unknown policy %q", s)
	}
}

// ParseMethod maps the wire method name to a sched.Method.
func ParseMethod(s string) (sched.Method, error) {
	switch s {
	case "", "closed-form":
		return sched.ClosedForm, nil
	case "fixed-point":
		return sched.FixedPoint, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

// BuildModel constructs the pwl model described by the spec; unsafe flags
// the simple monotonic kind, which can under-estimate response times.
func BuildModel(m ModelSpec) (model *pwl.Model, unsafe bool, err error) {
	switch m.Kind {
	case "non-monotonic":
		model, err = pwl.PaperNonMonotonic(m.XiTT, m.Kp, m.XiM, m.XiET)
		return model, false, err
	case "conservative":
		model, err = pwl.PaperConservative(m.Kp, m.XiM, m.XiET)
		return model, false, err
	case "simple":
		model, err = pwl.SimpleMonotonic(m.XiTT, m.XiET)
		return model, true, err
	default:
		return nil, false, fmt.Errorf("unknown model kind %q", m.Kind)
	}
}

// fleetSpec is one compiled fleet request: the apps to place, the policy
// or the policy race, the wait-time method, and whether any model is the
// unsafe simple kind.
type fleetSpec struct {
	apps   []*sched.App
	policy sched.Policy
	race   bool
	method sched.Method
	unsafe bool
}

// spec compiles one fleet request. Every failure is a *RequestError — a
// malformed request, as opposed to an infeasible fleet.
func (fr *FleetRequest) spec() (fleetSpec, error) {
	fail := func(err error) (fleetSpec, error) {
		return fleetSpec{}, &RequestError{Err: err}
	}
	if len(fr.Apps) == 0 {
		return fail(errors.New("no apps in fleet"))
	}
	policy, race, err := ParsePolicy(fr.Policy)
	if err != nil {
		return fail(err)
	}
	method, err := ParseMethod(fr.Method)
	if err != nil {
		return fail(err)
	}
	seen := make(map[string]bool, len(fr.Apps))
	apps := make([]*sched.App, 0, len(fr.Apps))
	unsafe := false
	for _, ia := range fr.Apps {
		if seen[ia.Name] {
			return fail(fmt.Errorf("duplicate app name %q", ia.Name))
		}
		seen[ia.Name] = true
		if err := finiteScalars([]scalarField{
			{"r", ia.R}, {"deadline", ia.Deadline},
			{"model.xiTT", ia.Model.XiTT}, {"model.kp", ia.Model.Kp},
			{"model.xiM", ia.Model.XiM}, {"model.xiET", ia.Model.XiET},
		}, nil); err != nil {
			return fail(fmt.Errorf("app %q: %w", ia.Name, err))
		}
		m, isUnsafe, err := BuildModel(ia.Model)
		if err != nil {
			return fail(fmt.Errorf("app %q: %w", ia.Name, err))
		}
		unsafe = unsafe || isUnsafe
		apps = append(apps, &sched.App{Name: ia.Name, R: ia.R, Deadline: ia.Deadline, Model: m})
	}
	return fleetSpec{apps: apps, policy: policy, race: race, method: method, unsafe: unsafe}, nil
}

// fleetLabel names a fleet in errors: its name if given, else its index.
func fleetLabel(fr *FleetRequest, i int) string {
	if fr.Name != "" {
		return fmt.Sprintf("fleet %q", fr.Name)
	}
	return fmt.Sprintf("fleet %d", i)
}

// AllocateFleets compiles every fleet request, allocates them concurrently
// across a bounded worker pool (workers ≤ 0 selects GOMAXPROCS) and reports
// per-fleet results in input order with apps in input-app order.
//
// Malformed requests (unknown policy/method/model kind, empty or duplicate
// apps) fail the whole call — the request itself is broken. Per-fleet
// allocation failures (an infeasible fleet) are recorded in the matching
// FleetResult.Error instead, so a batch reports every salvageable result.
// ctx bounds the exponential exact search: once it expires no further
// fleet starts and the call fails with an error that unwraps to ctx.Err()
// instead of reporting the fleets it stopped as infeasible.
func AllocateFleets(ctx context.Context, reqs []FleetRequest, workers int) ([]*FleetResult, error) {
	specs := make([]fleetSpec, len(reqs))
	var errs []error
	for i := range reqs {
		spec, err := reqs[i].spec()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", fleetLabel(&reqs[i], i), err))
			continue
		}
		specs[i] = spec
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return forEachItem(ctx, len(reqs), workers, func(i int) (*FleetResult, error) {
		res, err := allocateFleet(ctx, &reqs[i], specs[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fleetLabel(&reqs[i], i), err)
		}
		return &res, nil
	})
}

// allocateFleet allocates one compiled fleet — the policy race, or the
// requested policy under ctx — and reports it in wire form. An infeasible
// fleet is an analysis outcome, reported in-band in FleetResult.Error; an
// exact search stopped by ctx fails the call with an error that unwraps to
// ctx.Err().
func allocateFleet(ctx context.Context, req *FleetRequest, spec fleetSpec) (FleetResult, error) {
	var al *sched.Allocation
	var err error
	if spec.race {
		al, err = sched.AllocateRace(spec.apps, nil, spec.method)
	} else {
		al, err = sched.AllocateContext(ctx, spec.apps, spec.policy, spec.method)
	}
	if isCancellation(err) {
		return FleetResult{}, err
	}
	res := FleetResult{Name: req.Name}
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	if err := fillFleetResult(&res, req, al, spec.unsafe); err != nil {
		return FleetResult{}, err
	}
	return res, nil
}

// fillFleetResult analyses every slot of the allocation and emits the
// per-app results in input-app order, keyed back by name.
func fillFleetResult(res *FleetResult, req *FleetRequest, al *sched.Allocation, unsafe bool) error {
	res.Slots = al.NumSlots()
	res.Policy = al.Policy.String()
	res.Method = al.Method.String()
	res.Unsafe = unsafe
	byName := make(map[string]AppResult, len(req.Apps))
	for s, group := range al.Slots {
		results, _, err := sched.AnalyzeSlot(group, al.Method)
		if err != nil {
			return err
		}
		for _, r := range results {
			byName[r.App.Name] = AppResult{
				Name:        r.App.Name,
				Slot:        s + 1,
				MaxWait:     r.MaxWait,
				WCRT:        r.WCRT,
				Deadline:    r.App.Deadline,
				Schedulable: r.Schedulable,
			}
		}
	}
	res.Apps = make([]AppResult, 0, len(req.Apps))
	for _, ia := range req.Apps {
		ar, ok := byName[ia.Name]
		if !ok {
			return fmt.Errorf("app %q missing from the allocation", ia.Name)
		}
		res.Apps = append(res.Apps, ar)
	}
	return nil
}
