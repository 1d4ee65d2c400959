package core

import (
	"context"
	"errors"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/sched"
)

// DeriveFleet derives every application of a fleet across a conc pool of
// runtime.GOMAXPROCS(0) workers, the first of them the calling goroutine,
// so a one-app fleet starts no goroutine. Results keep the input order and
// are identical to calling (*Application).DeriveContext sequentially —
// derivation is deterministic and the expensive intermediates are
// memoised centrally, so identical plants are derived once no matter
// which worker gets them.
//
// All applications are attempted even when some fail; the per-application
// errors are aggregated with errors.Join, so a single poisoned application
// reports precisely while the rest of the fleet still validates. A ctx
// expiry is different: it aborts the in-flight derivations promptly, skips
// the undispatched ones and returns ctx.Err() alone. On any error the
// result is nil.
func DeriveFleet(ctx context.Context, apps []*Application) ([]*Derived, error) {
	out := make([]*Derived, len(apps))
	errs := make([]error, len(apps))
	err := conc.ForEachCtx(ctx, len(apps), 0, func(i int) error {
		out[i], errs[i] = apps[i].DeriveContext(ctx)
		return nil // app failures are aggregated, not dispatch-stopping
	})
	if err == nil {
		err = errors.Join(errs...)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
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
