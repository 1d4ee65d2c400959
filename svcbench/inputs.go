package main

import (
	"encoding/json"
	"fmt"

	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
)

// The helpers below turn the workload's specs and result rows into the
// inputs of the layers' public functions, for the checks and the direct
// layer timings.

// deriveInput is one workload row as core sees it. Calibrated designs carry
// their (possibly complex) poles separately, since the derive wire format
// spells real poles only.
type deriveInput struct {
	spec             service.DeriveAppSpec
	polesTT, polesET []complex128
}

func deriveInputs(specs []service.DeriveAppSpec, poles [][2][]complex128) []deriveInput {
	out := make([]deriveInput, len(specs))
	for i, s := range specs {
		out[i] = deriveInput{spec: s}
		if poles != nil {
			out[i].polesTT, out[i].polesET = poles[i][0], poles[i][1]
		}
	}
	return out
}

// compile builds the core.Application the service compiles from the same
// spec, so a direct derivation meets the service's cache entries.
func (in *deriveInput) compile(i int) *core.Application {
	s := &in.spec
	plantName := s.Plant.Name
	if plantName == "" {
		plantName = s.Name
	}
	var c *mat.Matrix
	if len(s.Plant.C) > 0 {
		c = mat.FromRows(s.Plant.C)
	}
	frameID := s.FrameID
	if frameID == 0 {
		frameID = i + 1
	}
	app := &core.Application{
		Name:     s.Name,
		Plant:    &lti.Continuous{Name: plantName, A: mat.FromRows(s.Plant.A), B: mat.FromRows(s.Plant.B), C: c},
		H:        s.H,
		DelayTT:  s.DelayTT,
		DelayET:  s.DelayET,
		Eth:      s.Eth,
		X0:       append([]float64(nil), s.X0...),
		R:        s.R,
		Deadline: s.Deadline,
		FrameID:  frameID,
		PolesTT:  in.polesTT,
		PolesET:  in.polesET,
	}
	if in.polesTT == nil {
		app.PolesTT, app.PolesET = realPoles(s.PolesTT), realPoles(s.PolesET)
	}
	return app
}

func realPoles(ps []float64) []complex128 {
	if len(ps) == 0 {
		return nil
	}
	out := make([]complex128, len(ps))
	for i, p := range ps {
		out[i] = complex(p, 0)
	}
	return out
}

// distinct compiles one app per distinct derivation (by core's canonical
// cache key), in first-seen order.
func distinct(inputs []deriveInput) []*core.Application {
	seen := make(map[string]bool)
	var out []*core.Application
	for i := range inputs {
		app := inputs[i].compile(i)
		if k := app.CacheKey(); !seen[k] {
			seen[k] = true
			out = append(out, app)
		}
	}
	return out
}

// calibratedInputs turns calibrate rows back into derive inputs: the
// request's plant and timing with the calibrated poles.
func calibratedInputs(specs []service.CalibrateAppSpec, rows []streamRow) ([]service.DeriveAppSpec, [][2][]complex128) {
	dspecs := make([]service.DeriveAppSpec, len(rows))
	poles := make([][2][]complex128, len(rows))
	for i := range rows {
		dspecs[i] = deriveSpec(&specs[i])
		var res service.CalibrateResult
		if err := json.Unmarshal(rows[i].Result, &res); err == nil {
			poles[i] = [2][]complex128{complexPoles(res.PolesTT), complexPoles(res.PolesET)}
		}
	}
	return dspecs, poles
}

// deriveSpec is a calibration request's app without its targets: plant,
// timing, disturbance and deadline, no poles.
func deriveSpec(s *service.CalibrateAppSpec) service.DeriveAppSpec {
	return service.DeriveAppSpec{Name: s.Name, Plant: s.Plant, H: s.H, DelayTT: s.DelayTT,
		DelayET: s.DelayET, Eth: s.Eth, X0: s.X0, R: s.R, Deadline: s.Deadline, FrameID: s.FrameID}
}

func complexPoles(ps []service.PoleSpec) []complex128 {
	out := make([]complex128, len(ps))
	for i, p := range ps {
		out[i] = complex(p.Re, p.Im)
	}
	return out
}

// fleetSpecs is the allocation input of a derived fleet: every app's
// fitted non-monotonic model with its r and deadline (rs and ds, when
// given, override the spec's).
func fleetSpecs(specs []service.DeriveAppSpec, rows []streamRow, rs, ds []float64) ([]service.AppSpec, error) {
	apps := make([]service.AppSpec, len(rows))
	for i := range rows {
		var res service.DeriveResult
		if err := json.Unmarshal(rows[i].Result, &res); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		apps[i] = service.AppSpec{Name: specs[i].Name, R: specs[i].R, Deadline: specs[i].Deadline, Model: res.Model}
		if rs != nil {
			apps[i].R, apps[i].Deadline = rs[i], ds[i]
		}
	}
	return apps, nil
}

// allocateBody is the POST /v1/allocate request of a fleet, raced across
// the allocation policies.
func allocateBody(apps []service.AppSpec) ([]byte, error) {
	return json.Marshal(&service.AllocateRequest{FleetRequest: service.FleetRequest{Policy: "race", Apps: apps}})
}

// schedApps builds the fleet's models the way the service does.
func schedApps(apps []service.AppSpec) ([]*sched.App, error) {
	out := make([]*sched.App, len(apps))
	for i, a := range apps {
		m, _, err := service.BuildModel(a.Model)
		if err != nil {
			return nil, fmt.Errorf("app %s: %w", a.Name, err)
		}
		out[i] = &sched.App{Name: a.Name, R: a.R, Deadline: a.Deadline, Model: m}
	}
	return out, nil
}
