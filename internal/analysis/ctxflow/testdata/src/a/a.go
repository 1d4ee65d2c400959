// Package a exercises the ctxflow positive cases: fresh root contexts in
// library code and context-discarding call variants.
package a

import "context"

type App struct{}

func (a *App) Derive() error { return a.DeriveContext(todo()) }

func (a *App) DeriveContext(ctx context.Context) error { return ctx.Err() }

func Probe() error { return ProbeContext(todo()) }

func ProbeContext(ctx context.Context) error { return ctx.Err() }

// todo centralises the root-context construction the cases below violate
// against; it is itself a violation.
func todo() context.Context {
	return context.TODO() // want `context\.TODO\(\) in library code`
}

// freshRoot manufactures a root context in a library path.
func freshRoot() error { //nolint:unused
	ctx := context.Background() // want `context\.Background\(\) in library code`
	return ctx.Err()
}

// discardsCtx has a ctx in scope but calls the non-context variants.
func discardsCtx(ctx context.Context, a *App) error {
	if err := a.Derive(); err != nil { // want `Derive discards the ctx in scope; call DeriveContext`
		return err
	}
	return Probe() // want `Probe discards the ctx in scope; call ProbeContext`
}

// threaded is the clean shape: the in-scope ctx reaches the compute.
func threaded(ctx context.Context, a *App) error {
	if err := a.DeriveContext(ctx); err != nil {
		return err
	}
	return ProbeContext(ctx)
}

// legacyWrapper still carries the annotation that once exempted it; no
// directive exempts a function from ctxflow any more.
//
//cpsdyn:ctx-compat the annotation no longer exempts anything
func legacyWrapper(a *App) error {
	return a.DeriveContext(context.Background()) // want `context\.Background\(\) in library code`
}
