package sched

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"cpsdyn/internal/pwl"
)

// randomFleet generates n schedulable-ish apps with paper-style models.
func randomFleet(r *rand.Rand, n int) []*App {
	apps := make([]*App, 0, n)
	for i := 0; i < n; i++ {
		xiTT := 0.2 + 2*r.Float64()
		xiET := xiTT * (2 + 4*r.Float64())
		kp := xiET * (0.05 + 0.3*r.Float64())
		xiM := xiTT * (1 + r.Float64())
		m, err := pwl.PaperNonMonotonic(xiTT, kp, xiM, xiET)
		if err != nil {
			continue
		}
		rr := xiET * (1.2 + 6*r.Float64())
		dl := xiTT*1.2 + (rr-xiTT*1.2)*r.Float64()
		apps = append(apps, &App{
			Name:     string(rune('A' + i)),
			R:        rr,
			Deadline: dl,
			Model:    m,
		})
	}
	return apps
}

// Property: every allocation a policy returns passes Verify.
func TestPropAllocationsVerify(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 2+r.Intn(6))
		for _, policy := range []Policy{FirstFit, Sequential, BestFit} {
			al, err := AllocateContext(context.Background(), apps, policy, ClosedForm)
			if err != nil {
				continue // some random apps are unschedulable even alone
			}
			if err := al.Verify(); err != nil {
				return false
			}
			// Every app placed exactly once.
			placed := 0
			for _, g := range al.Slots {
				placed += len(g)
			}
			if placed != len(apps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact allocator never uses more slots than any heuristic.
func TestPropExactIsOptimalAmongPolicies(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 2+r.Intn(5))
		exact, err := AllocateContext(context.Background(), apps, Exact, ClosedForm)
		if err != nil {
			return true
		}
		for _, policy := range []Policy{FirstFit, Sequential, BestFit} {
			h, err := AllocateContext(context.Background(), apps, policy, ClosedForm)
			if err != nil {
				return false // exact succeeded, heuristic must too
			}
			if exact.NumSlots() > h.NumSlots() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an interfering app never shrinks anyone's maximum wait.
func TestPropInterferenceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 3+r.Intn(4))
		if len(apps) < 3 {
			return true
		}
		sub := SortByPriority(apps[:len(apps)-1])
		full := SortByPriority(apps)
		for i, a := range sub {
			w1, err1 := MaxWait(sub, i, ClosedForm)
			// Find the same app's index in the full set.
			j := -1
			for k, b := range full {
				if b == a {
					j = k
				}
			}
			w2, err2 := MaxWait(full, j, ClosedForm)
			if err1 != nil {
				continue // already over-utilised without the extra app
			}
			if err2 != nil {
				continue // extra app pushed it over the utilisation bound
			}
			if w2 < w1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fixed-point bound never exceeds the closed form, and both
// are at least the blocking term.
func TestPropFixedPointWithinClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := SortByPriority(randomFleet(r, 2+r.Intn(5)))
		for i := range apps {
			cf, err1 := MaxWait(apps, i, ClosedForm)
			fp, err2 := MaxWait(apps, i, FixedPoint)
			if err1 != nil || err2 != nil {
				continue
			}
			if fp > cf+1e-9 {
				return false
			}
			blocking := 0.0
			for _, lp := range apps[i+1:] {
				if d := lp.Model.MaxDwell(); d > blocking {
					blocking = d
				}
			}
			if fp < blocking-1e-9 || cf < blocking-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllocateRace never uses more slots than the best individual
// policy — racing can only pick an existing allocation, so it must match
// the feasible minimum over its contenders — and it fails only when every
// contender fails.
func TestPropRaceNeverWorseThanBestPolicy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 2+r.Intn(6))
		best := -1
		for _, policy := range DefaultRacePolicies {
			al, err := AllocateContext(context.Background(), apps, policy, ClosedForm)
			if err != nil {
				continue
			}
			if best < 0 || al.NumSlots() < best {
				best = al.NumSlots()
			}
		}
		raced, err := AllocateRace(apps, nil, ClosedForm)
		if best < 0 {
			return err != nil // all contenders failed ⇒ the race must too
		}
		if err != nil {
			return false // some contender succeeded ⇒ the race must too
		}
		return raced.NumSlots() <= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every allocation respects slot capacity — each app is placed
// exactly once, every slot's group is schedulable as allocated (Verify),
// and no slot is over-utilised: on every slot the interference utilisation
// seen by its lowest-priority app (Σ ξM_j / r_j over the others) stays
// below 1, the paper's condition for a finite wait-time bound. (The full
// sum including the lowest-priority app itself may exceed 1 — a lone app
// with a tall dwell peak is still fine, nobody waits on it.)
func TestPropAllocationRespectsSlotCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 2+r.Intn(6))
		allocate := func(policy Policy, race bool) (*Allocation, error) {
			if race {
				return AllocateRace(apps, nil, ClosedForm)
			}
			return AllocateContext(context.Background(), apps, policy, ClosedForm)
		}
		for _, c := range []struct {
			policy Policy
			race   bool
		}{{FirstFit, false}, {Sequential, false}, {BestFit, false}, {0, true}} {
			al, err := allocate(c.policy, c.race)
			if err != nil {
				continue // random fleets may be infeasible under any policy
			}
			if err := al.Verify(); err != nil {
				return false
			}
			placed := make(map[string]int)
			for _, group := range al.Slots {
				if len(group) == 0 {
					return false // an empty slot is a wasted slot
				}
				sorted := SortByPriority(group)
				if u := SlotUtilization(sorted[:len(sorted)-1]); u >= 1 {
					return false
				}
				for _, a := range group {
					placed[a.Name]++
				}
			}
			if len(placed) != len(apps) {
				return false
			}
			for _, n := range placed {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a slot's utilisation bound — if AnalyzeSlot says everything is
// schedulable, the worst-case slot utilisation of the interferers of the
// lowest-priority app is below 1.
func TestPropSchedulableImpliesUtilisationBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apps := randomFleet(r, 2+r.Intn(5))
		results, ok, err := AnalyzeSlot(apps, ClosedForm)
		if err != nil || !ok {
			return true
		}
		sorted := SortByPriority(apps)
		u := 0.0
		for _, a := range sorted[:len(sorted)-1] {
			u += a.Model.MaxDwell() / a.R
		}
		_ = results
		return u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
