package sched

import (
	"context"
	"fmt"
)

// Policy selects the slot-allocation heuristic. Finding the minimum number
// of slots is NP-hard (§IV), so the paper uses a heuristic; Exact is
// provided as a branch-and-bound reference for small application sets.
//
// Every policy tests a candidate slot incrementally (see slotState): the
// joiner is evaluated from the slot's running interference sums and only
// the members whose blocking it raises are re-evaluated, with no copy,
// sort or allocation. Under the closed form a check costs O(1) plus the
// raised members; the fixed point adds an O(k) pass per iteration over the
// k members above each evaluated app.
type Policy int

const (
	// FirstFit considers applications in priority order and places each in
	// the first existing slot on which the whole group stays schedulable,
	// opening a new slot otherwise. It checks up to one candidate per open
	// slot per app.
	FirstFit Policy = iota
	// Sequential is the paper's literal §IV procedure: applications are
	// only tried on the most recently opened slot, one check per app.
	Sequential
	// BestFit places each application on the feasible slot whose resulting
	// utilisation is highest (tightest packing). It checks every open slot
	// for every app.
	BestFit
	// Exact searches all partitions (with symmetry and bound pruning) for
	// the minimum number of slots. Exponential; intended for n ≲ 12, and
	// cancellable through AllocateContext.
	Exact
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case Sequential:
		return "sequential"
	case BestFit:
		return "best-fit"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Allocation maps applications to TT slots.
type Allocation struct {
	Slots  [][]*App // Slots[s] lists the apps sharing TT slot s
	Policy Policy
	Method Method
}

// NumSlots returns the number of TT slots used.
func (al *Allocation) NumSlots() int { return len(al.Slots) }

// SlotOf returns the slot index of the named app, or −1.
func (al *Allocation) SlotOf(name string) int {
	for s, group := range al.Slots {
		for _, a := range group {
			if a.Name == name {
				return s
			}
		}
	}
	return -1
}

// Verify re-runs the schedulability analysis on every slot and returns an
// error if any app misses its deadline.
func (al *Allocation) Verify() error {
	for s, group := range al.Slots {
		results, ok, err := AnalyzeSlot(group, al.Method)
		if err != nil {
			return fmt.Errorf("sched: slot %d: %w", s+1, err)
		}
		if !ok {
			for _, r := range results {
				if !r.Schedulable {
					return fmt.Errorf("sched: slot %d: app %q unschedulable (ξ̂ = %.3f > ξd = %.3f)",
						s+1, r.App.Name, r.WCRT, r.App.Deadline)
				}
			}
		}
	}
	return nil
}

// AllocateContext assigns the applications to TT slots under the given
// policy and wait-time method. Apps are processed in priority order (§V
// starts from the shortest deadline). An app that is unschedulable even
// alone on a fresh slot yields an error. The polynomial heuristics do not
// look at ctx; the exponential Exact search checks it every 1 024 search
// nodes and, once it has expired, stops with an error that unwraps to
// ctx.Err().
func AllocateContext(ctx context.Context, apps []*App, policy Policy, method Method) (*Allocation, error) {
	if err := validateApps(apps); err != nil {
		return nil, err
	}
	return allocateSorted(ctx.Err, SortByPriority(apps), policy, method)
}

// validateApps returns the first app's validation error, if any.
func validateApps(apps []*App) error {
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// allocateSorted runs one policy over validated apps in priority order
// (SortByPriority); it only reads sorted, so racing policies share one
// slice. The Exact search polls stop (see allocateExact).
func allocateSorted(stop func() error, sorted []*App, policy Policy, method Method) (*Allocation, error) {
	if len(sorted) == 0 {
		return &Allocation{Policy: policy, Method: method}, nil
	}
	var slots [][]*App
	switch policy {
	case FirstFit, Sequential, BestFit:
		states, err := allocateGreedy(sorted, policy, method)
		if err != nil {
			return nil, err
		}
		slots = slotApps(states)
	case Exact:
		var err error
		if slots, err = allocateExact(stop, sorted, method); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", policy)
	}
	return &Allocation{Slots: slots, Policy: policy, Method: method}, nil
}

// allocateGreedy places the priority-sorted apps one by one under a
// polynomial policy, opening a slot whenever the policy finds none.
func allocateGreedy(sorted []*App, policy Policy, method Method) ([]slotState, error) {
	var slots []slotState
	for _, app := range sorted {
		c := candidate(app)
		idx := pickSlot(slots, c, policy, method)
		if idx < 0 {
			// Open a new slot; the app must at least fit alone.
			slots = append(slots, slotState{})
			idx = len(slots) - 1
			if !slots[idx].admits(c, method) {
				return nil, fmt.Errorf("sched: app %q unschedulable even on a dedicated TT slot (ξTT = %.3f > ξd = %.3f)",
					app.Name, app.Model.XiTT(), app.Deadline)
			}
		}
		slots[idx].join(c, method, nil)
	}
	return slots, nil
}

// pickSlot returns the index of an existing slot that can accept the
// candidate, or −1 if a new slot must be opened.
func pickSlot(slots []slotState, c member, policy Policy, method Method) int {
	switch policy {
	case FirstFit:
		for i := range slots {
			if slots[i].admits(c, method) {
				return i
			}
		}
	case Sequential:
		if i := len(slots) - 1; i >= 0 && slots[i].admits(c, method) {
			return i
		}
	case BestFit:
		best, bestU := -1, -1.0
		for i := range slots {
			if !slots[i].admits(c, method) {
				continue
			}
			// SlotUtilization of the slot with c appended: the running sum
			// plus c's term, added in the same (priority) order.
			if u := slots[i].util + c.xiM/c.app.R; u > bestU {
				best, bestU = i, u
			}
		}
		return best
	}
	return -1
}

// exactCheckEvery is how many Exact search nodes pass between stop polls.
const exactCheckEvery = 1024

// allocateExact finds a minimum-slot partition by depth-first search with
// branch-and-bound. Apps arrive in priority order; each app is tried in
// every existing group (skipping infeasible ones) and in one new group —
// opening at most one new group per level kills permutation symmetry. A
// group is left exactly as it was before each tried join. Every
// exactCheckEvery nodes the search polls stop (ctx.Err under
// AllocateContext) and ends with its error, if any.
func allocateExact(stop func() error, sorted []*App, method Method) ([][]*App, error) {
	// Upper bound from first-fit.
	ff, err := allocateGreedy(sorted, FirstFit, method)
	if err != nil {
		return nil, err
	}
	best := slotApps(ff)
	bestN := len(best)

	cands := make([]member, len(sorted))
	for i, app := range sorted {
		cands[i] = candidate(app)
	}
	// Opened groups are truncated away, not freed, so a reopened group
	// reuses its buffers. Joins and leaves nest, so one trail serves all
	// groups.
	groups := make([]slotState, 0, len(sorted))
	var trail []member
	nodes := 0
	var dfs func(i int) error
	dfs = func(i int) error {
		if nodes++; nodes%exactCheckEvery == 0 {
			if err := stop(); err != nil {
				return fmt.Errorf("sched: exact allocation stopped after %d search nodes: %w", nodes, err)
			}
		}
		if len(groups) >= bestN {
			return nil // cannot improve
		}
		if i == len(sorted) {
			best = slotApps(groups)
			bestN = len(best)
			return nil
		}
		c := cands[i]
		for g := range groups {
			if !groups[g].admits(c, method) {
				continue
			}
			groups[g].join(c, method, &trail)
			if err := dfs(i + 1); err != nil {
				return err
			}
			groups[g].leave(&trail)
		}
		// Open a new group, but only if the result could still beat bestN.
		if len(groups)+1 < bestN {
			groups = groups[:len(groups)+1]
			g := &groups[len(groups)-1]
			if !g.admits(c, method) {
				return fmt.Errorf("sched: app %q unschedulable even on a dedicated TT slot", c.app.Name)
			}
			g.join(c, method, &trail)
			if err := dfs(i + 1); err != nil {
				return err
			}
			g.leave(&trail)
			groups = groups[:len(groups)-1]
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return nil, err
	}
	return best, nil
}
