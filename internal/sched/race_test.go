package sched

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"cpsdyn/internal/pwl"
)

// The race winner must match the best individual heuristic on the Table I
// workload, and its result must survive re-verification.
func TestAllocateRaceMatchesBestPolicy(t *testing.T) {
	for _, build := range []func(testing.TB) []*App{paperApps, paperAppsConservative} {
		apps := build(t)
		best := -1
		for _, p := range DefaultRacePolicies {
			al, err := AllocateContext(context.Background(), apps, p, ClosedForm)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || al.NumSlots() < best {
				best = al.NumSlots()
			}
		}
		raced, err := AllocateRace(apps, nil, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		if raced.NumSlots() != best {
			t.Fatalf("race used %d slots, best individual policy used %d", raced.NumSlots(), best)
		}
		if err := raced.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// Racing is deterministic: repeated runs return the same policy and the
// same slot assignment (ties break towards the earlier policy).
func TestAllocateRaceDeterministic(t *testing.T) {
	apps := paperApps(t)
	first, err := AllocateRace(apps, nil, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := AllocateRace(apps, nil, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		if again.Policy != first.Policy || again.NumSlots() != first.NumSlots() {
			t.Fatalf("run %d: policy %v/%d slots, first run %v/%d",
				i, again.Policy, again.NumSlots(), first.Policy, first.NumSlots())
		}
		for _, a := range apps {
			if again.SlotOf(a.Name) != first.SlotOf(a.Name) {
				t.Fatalf("run %d: %s moved slots between runs", i, a.Name)
			}
		}
	}
}

// An explicit single-policy race degenerates to plain AllocateContext.
func TestAllocateRaceSinglePolicy(t *testing.T) {
	apps := paperApps(t)
	raced, err := AllocateRace(apps, []Policy{Sequential}, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AllocateContext(context.Background(), apps, Sequential, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if raced.Policy != Sequential || raced.NumSlots() != plain.NumSlots() {
		t.Fatalf("single-policy race diverged: %v/%d vs %d", raced.Policy, raced.NumSlots(), plain.NumSlots())
	}
}

// The race answers what the best AllocateContext of its policies answers
// (the fewest slots, the earlier policy on a tie, or every error joined),
// whatever the contenders: Exact, an unknown policy, an empty fleet.
func TestAllocateRaceMatchesPerPolicyAllocations(t *testing.T) {
	ctx := context.Background()
	for _, apps := range [][]*App{paperApps(t), nil} {
		for _, policies := range [][]Policy{nil, {Exact}, {Sequential, Exact}, {Policy(9)}, {Policy(9), BestFit}} {
			contenders := policies
			if len(contenders) == 0 {
				contenders = DefaultRacePolicies
			}
			var want *Allocation
			errs := make([]error, len(contenders))
			for i, p := range contenders {
				al, err := AllocateContext(ctx, apps, p, ClosedForm)
				if errs[i] = err; err == nil && (want == nil || al.NumSlots() < want.NumSlots()) {
					want = al
				}
			}
			got, err := AllocateRace(apps, policies, ClosedForm)
			if want == nil {
				wantErr := "sched: no raced policy produced a feasible allocation: " + errors.Join(errs...).Error()
				if err == nil || err.Error() != wantErr {
					t.Fatalf("%d apps, %v: race error = %v, want %s", len(apps), policies, err, wantErr)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d apps, %v: race = %+v, %v; want %+v", len(apps), policies, got, err, want)
			}
		}
	}
}

// When no policy can place an app, the joined error surfaces each
// policy's own failure in policy order, byte for byte: for an app that is
// unschedulable even alone (ξTT = 5 > ξd = 1) and for an invalid one.
func TestAllocateRaceAllFail(t *testing.T) {
	m, err := pwl.SimpleMonotonic(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []*App{
		{Name: "doomed", R: 20, Deadline: 1, Model: m},
		{Name: "invalid", R: 20, Deadline: math.NaN(), Model: m},
	} {
		apps := []*App{app}
		errs := make([]error, len(DefaultRacePolicies))
		for i, p := range DefaultRacePolicies {
			if _, errs[i] = AllocateContext(context.Background(), apps, p, ClosedForm); errs[i] == nil {
				t.Fatalf("%s: %v placed the app", app.Name, p)
			}
		}
		want := "sched: no raced policy produced a feasible allocation: " + errors.Join(errs...).Error()
		if _, err := AllocateRace(apps, nil, ClosedForm); err == nil || err.Error() != want {
			t.Fatalf("%s: race error = %v\nwant %s", app.Name, err, want)
		}
	}
}
