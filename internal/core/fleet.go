package core

import (
	"context"
	"errors"
	"fmt"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/sched"
)

// DeriveFleet derives every application of a fleet across a worker pool
// of runtime.GOMAXPROCS(0) goroutines. Results keep the input order and
// are identical to calling (*Application).DeriveContext sequentially —
// derivation is deterministic and the expensive intermediates are
// memoised centrally, so identical plants are derived once no matter
// which worker gets them.
//
// All applications are attempted even when some fail; the per-application
// errors are aggregated with errors.Join, so a single poisoned application
// reports precisely while the rest of the fleet still validates. A ctx
// expiry is different: it aborts the in-flight derivations promptly, skips
// the undispatched ones and returns ctx.Err() alone.
func DeriveFleet(ctx context.Context, apps []*Application) ([]*Derived, error) {
	out := make([]*Derived, len(apps))
	if len(apps) == 0 {
		return out, ctx.Err()
	}
	if err := DeriveFleetInto(ctx, out, apps); err != nil {
		return nil, err
	}
	return out, nil
}

// DeriveFleetInto is DeriveFleet writing into a caller-held result slice,
// which must have exactly one slot per application. A fleet whose every
// application still matches its warm-derivation memo is served by a
// sequential sweep of pointer loads — zero allocations, no goroutines —
// which is the steady state of a service re-deriving an unchanged fleet
// per request; any miss falls back to the concurrent engine. On error the
// out slice is zeroed, mirroring DeriveFleet's nil result.
func DeriveFleetInto(ctx context.Context, out []*Derived, apps []*Application) error {
	if len(out) != len(apps) {
		return fmt.Errorf("core: DeriveFleetInto: out has %d slots for %d apps", len(out), len(apps))
	}
	if err := ctx.Err(); err != nil {
		clear(out)
		return err
	}
	warm := true
	for i, a := range apps {
		if m := a.memo.Load(); m != nil && m.matches(a) {
			out[i] = m.derived
		} else {
			out[i] = nil
			warm = false
		}
	}
	if warm {
		return nil
	}
	errs := make([]error, len(apps))
	ferr := conc.ForEachCtx(ctx, len(apps), 0, func(i int) error {
		out[i], errs[i] = apps[i].DeriveContext(ctx)
		return nil // app failures are aggregated, not dispatch-stopping
	})
	if ferr == nil {
		ferr = errors.Join(errs...)
	}
	if ferr != nil {
		clear(out)
		return ferr
	}
	return nil
}

// schedApps bridges a derived fleet to the schedulability layer.
func schedApps(fleet []*Derived, kind ModelKind) ([]*sched.App, error) {
	apps := make([]*sched.App, 0, len(fleet))
	for _, d := range fleet {
		sa, err := d.SchedApp(kind)
		if err != nil {
			return nil, err
		}
		apps = append(apps, sa)
	}
	return apps, nil
}

// AllocateSlotsRace races several allocation policies concurrently over the
// fleet and returns the feasible allocation using the fewest TT slots (ties
// go to the earlier policy). A nil or empty policies slice races
// sched.DefaultRacePolicies.
func AllocateSlotsRace(fleet []*Derived, kind ModelKind, policies []sched.Policy, method sched.Method) (*sched.Allocation, error) {
	apps, err := schedApps(fleet, kind)
	if err != nil {
		return nil, err
	}
	return sched.AllocateRace(apps, policies, method)
}
