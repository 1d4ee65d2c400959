package service

import (
	"context"
	"fmt"
	"io"
	"time"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
	"cpsdyn/internal/obs"
)

// CalibrateAppSpec describes one application for measured-mode calibration:
// the plant and timing as in a derive request, plus the pure-mode response
// targets the controller designs are searched against. EtOmega > 0 selects
// a lightly-damped complex ET pole pair at that natural frequency (rad/s) —
// the knob the case study uses for oscillatory plants. Times are in
// seconds.
type CalibrateAppSpec struct {
	Name       string    `json:"name"`
	Plant      PlantSpec `json:"plant"`
	H          float64   `json:"h"`
	DelayTT    float64   `json:"delayTT"`
	DelayET    float64   `json:"delayET"`
	Eth        float64   `json:"eth"`
	X0         []float64 `json:"x0"`
	R          float64   `json:"r"`
	Deadline   float64   `json:"deadline"`
	FrameID    int       `json:"frameID,omitempty"`
	TargetXiTT float64   `json:"targetXiTT"`
	TargetXiET float64   `json:"targetXiET"`
	EtOmega    float64   `json:"etOmega,omitempty"`
}

// CalibrateRequest is the POST /v1/calibrate body: applications to
// calibrate against response-time targets and an optional worker-pool
// bound (≤ 0 selects the server's configured pool).
type CalibrateRequest struct {
	Workers int                `json:"workers,omitempty"`
	Apps    []CalibrateAppSpec `json:"apps"`
}

// PoleSpec is one calibrated closed-loop pole in JSON form.
type PoleSpec struct {
	Re float64 `json:"re"`
	Im float64 `json:"im,omitempty"`
}

// CalibrateResult is one application's calibration outcome: the calibrated
// pole-placement designs plus the same Table-I-style derive row a
// /v1/derive response carries, so the response both documents the
// controllers and pastes directly into POST /v1/allocate.
type CalibrateResult struct {
	DeriveResult
	PolesTT []PoleSpec `json:"polesTT"`
	PolesET []PoleSpec `json:"polesET"`
}

// CalibrateResponse is the POST /v1/calibrate reply.
type CalibrateResponse struct {
	Apps  []CalibrateResult `json:"apps"`
	Cache core.CacheStats   `json:"cache"`
}

// application compiles the calibration spec into a core.Application with
// unset poles (Calibrate fills them); i is the app's position, used for the
// default frame ID.
func (s *CalibrateAppSpec) application(i int) (*core.Application, error) {
	if !isFinite(s.TargetXiTT) || !isFinite(s.TargetXiET) ||
		s.TargetXiTT <= 0 || s.TargetXiET <= s.TargetXiTT {
		return nil, &RequestError{App: s.Name,
			Err: fmt.Errorf("need 0 < targetXiTT (%g) < targetXiET (%g)", s.TargetXiTT, s.TargetXiET)}
	}
	if !isFinite(s.EtOmega) {
		return nil, &RequestError{App: s.Name,
			Err: fmt.Errorf("field etOmega = %g is not finite", s.EtOmega)}
	}
	d := DeriveAppSpec{
		Name:     s.Name,
		Plant:    s.Plant,
		H:        s.H,
		DelayTT:  s.DelayTT,
		DelayET:  s.DelayET,
		Eth:      s.Eth,
		X0:       s.X0,
		R:        s.R,
		Deadline: s.Deadline,
		FrameID:  s.FrameID,
	}
	return d.application(i)
}

func poleSpecs(ps []complex128) []PoleSpec {
	out := make([]PoleSpec, len(ps))
	for i, p := range ps {
		out[i] = PoleSpec{Re: real(p), Im: imag(p)}
	}
	return out
}

// appName names the spec's app for the duplicate-name rule.
func (s *CalibrateAppSpec) appName() string { return s.Name }

// Calibrate compiles the request, rejecting an empty request and duplicate
// app names like /v1/derive, then runs the measured-mode workflow
// (calibrateApp) for every app across the bounded worker pool
// (req.Workers ≤ 0 selects GOMAXPROCS). Per-app failures — searches that
// find no design, derivations that fail — are joined in input order while
// every other app still runs. A ctx expiry aborts the searches and
// derivations promptly.
func Calibrate(ctx context.Context, req *CalibrateRequest) (*CalibrateResponse, error) {
	apps, err := compileApps(req.Apps)
	if err != nil {
		return nil, err
	}
	rows, err := forEachItem(ctx, len(apps), req.Workers, func(i int) (CalibrateResult, error) {
		return calibrateApp(ctx, &req.Apps[i], apps[i])
	})
	if err != nil {
		return nil, err
	}
	return &CalibrateResponse{Apps: rows, Cache: core.DeriveCacheStats()}, nil
}

// calibrateApp runs one app's measured-mode workflow: search the controller
// designs against its targets (a sequential bisection per loop), derive the
// calibrated app on the shared memo cache, and report the derive row with
// the calibrated poles. The searches' time is ctx's span's search stage. A
// failed search names its app.
func calibrateApp(ctx context.Context, spec *CalibrateAppSpec, app *core.Application) (CalibrateResult, error) {
	t0 := time.Now()
	err := casestudy.Calibrate(ctx, app, spec.TargetXiTT, spec.TargetXiET, spec.EtOmega)
	obs.FromContext(ctx).StageSince(obs.StageSearch, t0)
	if err != nil {
		return CalibrateResult{}, fmt.Errorf("app %q: %w", spec.Name, err)
	}
	d, err := app.DeriveContext(ctx)
	if err != nil {
		return CalibrateResult{}, err
	}
	return CalibrateResult{
		DeriveResult: deriveResult(d),
		PolesTT:      poleSpecs(app.PolesTT),
		PolesET:      poleSpecs(app.PolesET),
	}, nil
}

// CalibrateStreamRow is one NDJSON line of a /v1/calibrate/stream response:
// the calibration outcome for the app on input line Index, in the same shape
// a buffered /v1/calibrate reports per app. Exactly one of Result and Error
// is set.
type CalibrateStreamRow struct {
	Index  int              `json:"index"`
	Result *CalibrateResult `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// CalibrateStream is DeriveStream's measured-mode sibling: NDJSON
// CalibrateAppSpec lines in, NDJSON CalibrateStreamRows out in input order,
// each app compiled and then calibrated (calibrateApp) across a bounded
// worker pool. Per-line failures (malformed JSON, duplicate names, invalid
// specs, searches that do not converge) become error rows and never abort
// the stream; a ctx expiry stops it mid-flight like the other engines.
func CalibrateStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return runStream(ctx, r, w, opts, (*CalibrateAppSpec).appName,
		func(ctx context.Context, spec *CalibrateAppSpec, i int) (CalibrateResult, error) {
			app, err := spec.application(i)
			if err != nil {
				return CalibrateResult{}, err
			}
			return calibrateApp(ctx, spec, app)
		},
		func(i int, res *CalibrateResult, err string, _ bool) CalibrateStreamRow {
			return CalibrateStreamRow{Index: i, Result: res, Error: err}
		})
}

func calibrateEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	var req CalibrateRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	req.Workers = s.workers(req.Workers)
	return Calibrate(ctx, &req)
}
