package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// DefaultRacePolicies is the contender set AllocateRace uses when the caller
// passes none: every polynomial-time heuristic (Exact is excluded — it is
// exponential and already optimal, so racing it is pointless).
var DefaultRacePolicies = []Policy{FirstFit, Sequential, BestFit}

// AllocateRace runs one allocation per policy concurrently and returns the
// feasible result that uses the fewest TT slots. No single heuristic
// dominates: first-fit and best-fit usually tie, but the paper's sequential
// procedure occasionally beats first-fit on adversarial orderings (and vice
// versa), so racing all of them buys the best packing for one slot-count of
// extra latency instead of three. The apps are validated and sorted by
// priority once, every contender reads that one order, and only the
// winner's slots become an Allocation.
//
// Ties are broken in favour of the earlier policy in the list, which makes
// the result deterministic. A nil or empty policies slice races
// DefaultRacePolicies. If every policy fails, the individual errors are
// joined in policy order; an invalid app fails every policy alike. The
// race takes no context, so an Exact contender runs to completion.
func AllocateRace(apps []*App, policies []Policy, method Method) (*Allocation, error) {
	if len(policies) == 0 {
		policies = DefaultRacePolicies
	}
	if err := validateApps(apps); err != nil {
		return nil, raceError(slices.Repeat([]error{err}, len(policies)))
	}
	if len(apps) == 0 {
		return &Allocation{Policy: policies[0], Method: method}, nil
	}
	sorted := SortByPriority(apps)
	type contender struct {
		states []slotState // a polynomial policy's slots
		al     *Allocation // any other policy's (Exact, or an unknown one, which fails)
		err    error
	}
	cs := make([]contender, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &cs[i]
			switch p {
			case FirstFit, Sequential, BestFit:
				c.states, c.err = allocateGreedy(sorted, p, method)
			default:
				c.al, c.err = allocateSorted(neverStop, sorted, p, method)
			}
		}()
	}
	wg.Wait()
	best, bestN := -1, 0
	for i, c := range cs {
		if c.err != nil {
			continue
		}
		n := len(c.states)
		if c.al != nil {
			n = c.al.NumSlots()
		}
		if best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		errs := make([]error, len(cs))
		for i, c := range cs {
			errs[i] = c.err
		}
		return nil, raceError(errs)
	}
	if w := cs[best]; w.al != nil {
		return w.al, nil
	}
	return &Allocation{Slots: slotApps(cs[best].states), Policy: policies[best], Method: method}, nil
}

// raceError reports a race that no policy won.
func raceError(errs []error) error {
	return fmt.Errorf("sched: no raced policy produced a feasible allocation: %w", errors.Join(errs...))
}

// neverStop is the stop poll of a search nobody can cancel.
func neverStop() error { return nil }
