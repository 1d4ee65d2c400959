package service

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
)

// PlantSpec is the JSON form of a continuous-time LTI plant
// ẋ = A·x + B·u, y = C·x. Matrices are row-major nested arrays; C may be
// omitted for full-state plants.
type PlantSpec struct {
	Name string      `json:"name,omitempty"`
	A    [][]float64 `json:"a"`
	B    [][]float64 `json:"b"`
	C    [][]float64 `json:"c,omitempty"`
}

// DeriveAppSpec describes one control application for batch derivation:
// the plant, its timing, the disturbance model and (optionally) real
// pole-placement targets. Omitted poles select the LQR defaults; an omitted
// frame ID is assigned from the app's position. Times are in seconds.
type DeriveAppSpec struct {
	Name     string    `json:"name"`
	Plant    PlantSpec `json:"plant"`
	H        float64   `json:"h"`
	DelayTT  float64   `json:"delayTT"`
	DelayET  float64   `json:"delayET"`
	Eth      float64   `json:"eth"`
	X0       []float64 `json:"x0"`
	R        float64   `json:"r"`
	Deadline float64   `json:"deadline"`
	FrameID  int       `json:"frameID,omitempty"`
	PolesTT  []float64 `json:"polesTT,omitempty"`
	PolesET  []float64 `json:"polesET,omitempty"`
}

// DeriveRequest is the POST /v1/derive body: a fleet to derive and an
// optional worker-pool bound (≤ 0 selects GOMAXPROCS).
type DeriveRequest struct {
	Workers int             `json:"workers,omitempty"`
	Apps    []DeriveAppSpec `json:"apps"`
}

// DeriveResult is one application's Table-I-style timing row plus the
// fitted non-monotonic model in allocation-request form, so a derive
// response pastes directly into POST /v1/allocate.
type DeriveResult struct {
	Name         string    `json:"name"`
	XiTT         float64   `json:"xiTT"`
	XiET         float64   `json:"xiET"`
	XiM          float64   `json:"xiM"`
	Kp           float64   `json:"kp"`
	XiPrimeM     float64   `json:"xiPrimeM"`
	NonMonotonic bool      `json:"nonMonotonic"`
	Model        ModelSpec `json:"model"`
}

// DeriveResponse is the POST /v1/derive reply. Cache is the shared
// derivation cache's cumulative counters after this request — sequential
// identical requests show the hit counter climbing, which is the service's
// reason to exist.
type DeriveResponse struct {
	Apps  []DeriveResult  `json:"apps"`
	Cache core.CacheStats `json:"cache"`
}

// matrix validates rectangularity and finiteness before mat.FromRows, which
// panics on ragged input — a malformed request must surface as an error
// instead, and NaN/±Inf entries would otherwise wander into the matrix
// exponentials and settling simulations (JSON cannot spell them, but the
// Go-level codec callers can).
func matrix(field string, rows [][]float64) (*mat.Matrix, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	want := len(rows[0])
	for i, r := range rows {
		if len(r) != want {
			return nil, fmt.Errorf("matrix %s: row %d has %d entries, want %d", field, i, len(r), want)
		}
		for j, v := range r {
			if !isFinite(v) {
				return nil, fmt.Errorf("matrix %s: entry (%d,%d) = %g is not finite", field, i, j, v)
			}
		}
	}
	return mat.FromRows(rows), nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// scalarField and vecField name a spec field for finiteScalars.
type scalarField struct {
	name string
	v    float64
}

type vecField struct {
	name string
	v    []float64
}

// finiteScalars rejects NaN/±Inf in the spec's scalar and vector fields,
// checked in the order given (declaration order), so a spec with several
// bad fields always reports the same one.
func finiteScalars(fields []scalarField, vecs []vecField) error {
	for _, f := range fields {
		if !isFinite(f.v) {
			return fmt.Errorf("field %s = %g is not finite", f.name, f.v)
		}
	}
	for _, f := range vecs {
		for i, v := range f.v {
			if !isFinite(v) {
				return fmt.Errorf("field %s[%d] = %g is not finite", f.name, i, v)
			}
		}
	}
	return nil
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

// application compiles the spec into a core.Application; i is the app's
// position, used for the default frame ID. Every failure is a *RequestError.
func (s *DeriveAppSpec) application(i int) (*core.Application, error) {
	fail := func(err error) (*core.Application, error) {
		return nil, &RequestError{App: s.Name, Err: err}
	}
	a, err := matrix("a", s.Plant.A)
	if err != nil {
		return fail(err)
	}
	b, err := matrix("b", s.Plant.B)
	if err != nil {
		return fail(err)
	}
	c, err := matrix("c", s.Plant.C)
	if err != nil {
		return fail(err)
	}
	if err := finiteScalars([]scalarField{
		{"h", s.H}, {"delayTT", s.DelayTT}, {"delayET", s.DelayET},
		{"eth", s.Eth}, {"r", s.R}, {"deadline", s.Deadline},
	}, []vecField{
		{"x0", s.X0}, {"polesTT", s.PolesTT}, {"polesET", s.PolesET},
	}); err != nil {
		return fail(err)
	}
	plantName := s.Plant.Name
	if plantName == "" {
		plantName = s.Name
	}
	frameID := s.FrameID
	if frameID == 0 {
		frameID = i + 1
	}
	return &core.Application{
		Name:     s.Name,
		Plant:    &lti.Continuous{Name: plantName, A: a, B: b, C: c},
		H:        s.H,
		DelayTT:  s.DelayTT,
		DelayET:  s.DelayET,
		Eth:      s.Eth,
		X0:       append([]float64(nil), s.X0...),
		R:        s.R,
		Deadline: s.Deadline,
		FrameID:  frameID,
		PolesTT:  realPoles(s.PolesTT),
		PolesET:  realPoles(s.PolesET),
	}, nil
}

// appName names the spec's app for the duplicate-name rule.
func (s *DeriveAppSpec) appName() string { return s.Name }

// appSpec is a per-app request spec, a derive or a calibrate one: it names
// its app and compiles into a core.Application (i is the app's position,
// used for the default frame ID).
type appSpec interface {
	appName() string
	application(i int) (*core.Application, error)
}

// compileApps compiles every spec in input order. It rejects an empty
// request and duplicate app names — like the allocate path always has —
// because a batch answering two different rows under one name is
// ambiguous downstream (allocation keys results by name). Every failure is
// a *RequestError.
func compileApps[S any, P interface {
	*S
	appSpec
}](specs []S) ([]*core.Application, error) {
	if len(specs) == 0 {
		return nil, &RequestError{Err: errors.New("no apps in request")}
	}
	apps := make([]*core.Application, len(specs))
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		spec := P(&specs[i])
		name := spec.appName()
		if seen[name] {
			return nil, duplicateName(name)
		}
		seen[name] = true
		a, err := spec.application(i)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	return apps, nil
}

// duplicateName is the error of an app whose name an earlier app of the
// same request or stream already took.
func duplicateName(name string) error {
	return &RequestError{App: name, Err: fmt.Errorf("duplicate app name %q", name)}
}

// applications compiles every spec of the request (see compileApps).
func (req *DeriveRequest) applications() ([]*core.Application, error) {
	return compileApps(req.Apps)
}

// deriveFunc answers one compiled derive item: spec as the client sent it,
// i its position in the request or stream, app the application compiled
// from both. The buffered endpoint and the stream call the same one:
// deriveLocal on a plain server, Server.peerDerive in sharding-gateway
// mode.
type deriveFunc func(ctx context.Context, spec *DeriveAppSpec, i int, app *core.Application) (DeriveResult, error)

// deriveLocal derives app on the shared memo cache.
func deriveLocal(ctx context.Context, _ *DeriveAppSpec, _ int, app *core.Application) (DeriveResult, error) {
	d, err := app.DeriveContext(ctx)
	if err != nil {
		return DeriveResult{}, err
	}
	return deriveResult(d), nil
}

// Derive compiles the request and derives every app on the shared memo
// cache across a bounded worker pool (req.Workers ≤ 0 selects GOMAXPROCS),
// reporting one timing row per app in input order. Per-app failures are
// joined in input order while every other app still derives. A ctx expiry
// aborts the in-flight matrix work promptly.
func Derive(ctx context.Context, req *DeriveRequest) (*DeriveResponse, error) {
	apps, err := req.applications()
	if err != nil {
		return nil, err
	}
	return deriveApps(ctx, req, apps, req.Workers, deriveLocal)
}

// deriveApps answers every compiled app of req with derive across workers.
func deriveApps(ctx context.Context, req *DeriveRequest, apps []*core.Application, workers int, derive deriveFunc) (*DeriveResponse, error) {
	rows, err := forEachItem(ctx, len(apps), workers, func(i int) (DeriveResult, error) {
		return derive(ctx, &req.Apps[i], i, apps[i])
	})
	if err != nil {
		return nil, err
	}
	return &DeriveResponse{Apps: rows, Cache: core.DeriveCacheStats()}, nil
}

// forEachItem runs fn for every item in [0, n) across a bounded worker pool
// (workers ≤ 0 selects GOMAXPROCS) and returns the results in input order.
// An item's failure does not stop the others; the failures are joined in
// input order. An item that panics fails alone, as an *internalError (see
// guard). A ctx expiry stops dispatching and wins over them.
func forEachItem[R any](ctx context.Context, n, workers int, fn func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	if err := conc.ForEachCtx(ctx, n, workers, func(i int) error {
		errs[i] = guard(func() (err error) { out[i], err = fn(i); return err })
		return nil // per-item failures are aggregated, not dispatch-stopping
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// deriveResult flattens one derived application into its wire row (shared
// by the derive and calibrate endpoints).
func deriveResult(d *core.Derived) DeriveResult {
	row := d.TimingRow()
	return DeriveResult{
		Name:         row.Name,
		XiTT:         row.XiTT,
		XiET:         row.XiET,
		XiM:          row.XiM,
		Kp:           row.Kp,
		XiPrimeM:     row.XiPrimeM,
		NonMonotonic: d.Curve.IsNonMonotonic(),
		Model: ModelSpec{
			Kind: "non-monotonic",
			XiTT: row.XiTT,
			Kp:   row.Kp,
			XiM:  row.XiM,
			XiET: row.XiET,
		},
	}
}
