package sched

import (
	"context"

	"cpsdyn/internal/conc"
)

// BatchSpec is one fleet's allocation request inside a batch. Race selects
// the concurrent policy race (AllocateRace over DefaultRacePolicies) instead
// of the single Policy.
type BatchSpec struct {
	Apps   []*App
	Policy Policy
	Race   bool
	Method Method
}

// BatchResult pairs one fleet's allocation with its error; exactly one of
// the two fields is set.
type BatchResult struct {
	Alloc *Allocation
	Err   error
}

// AllocateBatch allocates many independent fleets concurrently across a
// bounded worker pool (workers ≤ 0 selects runtime.GOMAXPROCS). Results keep
// the input order, and one fleet's failure never affects the others — the
// per-fleet error travels in its BatchResult. This is the engine behind both
// slotalloc's multi-fleet input and cpsdynd's /v1/allocate. See
// AllocateBatchContext for the cancellable variant this wraps.
//
//cpsdyn:ctx-compat legacy convenience entry point for the offline CLIs and benchmarks, which own no request context
func AllocateBatch(specs []BatchSpec, workers int) []BatchResult {
	return AllocateBatchContext(context.Background(), specs, workers)
}

// AllocateBatchContext is AllocateBatch under ctx: a fleet's Exact
// search stops once ctx expires (see AllocateContext), and no further
// fleet starts. A fleet stopped or never started by the expiry carries an
// error that unwraps to ctx.Err(). The raced heuristics never look at
// ctx.
func AllocateBatchContext(ctx context.Context, specs []BatchSpec, workers int) []BatchResult {
	out := make([]BatchResult, len(specs))
	err := conc.ForEachCtx(ctx, len(specs), workers, func(i int) error {
		s := specs[i]
		if s.Race {
			out[i].Alloc, out[i].Err = AllocateRace(s.Apps, nil, s.Method)
		} else {
			out[i].Alloc, out[i].Err = AllocateContext(ctx, s.Apps, s.Policy, s.Method)
		}
		return nil // a fleet's failure is its own, in its BatchResult
	})
	if err != nil {
		for i := range out {
			if out[i].Alloc == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}
