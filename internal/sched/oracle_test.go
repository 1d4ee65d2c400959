package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/pwl"
)

// referenceAllocate is the allocator as it was before slots were tested
// incrementally: every candidate is a fresh copy of the slot plus the
// joiner, validated, sorted and analysed from scratch by SlotSchedulable.
// It is the oracle for the incremental allocator.
func referenceAllocate(apps []*App, policy Policy, method Method) (*Allocation, error) {
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	if len(apps) == 0 {
		return &Allocation{Policy: policy, Method: method}, nil
	}
	sorted := SortByPriority(apps)
	if policy == Exact {
		return referenceExact(sorted, method)
	}

	var slots [][]*App
	for _, app := range sorted {
		idx, err := referencePickSlot(slots, app, policy, method)
		if err != nil {
			return nil, err
		}
		if idx >= 0 {
			slots[idx] = append(slots[idx], app)
			continue
		}
		alone := []*App{app}
		ok, err := SlotSchedulable(alone, method)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("sched: app %q unschedulable even on a dedicated TT slot (ξTT = %.3f > ξd = %.3f)",
				app.Name, app.Model.XiTT(), app.Deadline)
		}
		slots = append(slots, alone)
	}
	return &Allocation{Slots: slots, Policy: policy, Method: method}, nil
}

func referencePickSlot(slots [][]*App, app *App, policy Policy, method Method) (int, error) {
	switch policy {
	case FirstFit:
		for i, group := range slots {
			ok, err := SlotSchedulable(append(append([]*App(nil), group...), app), method)
			if err != nil {
				return -1, err
			}
			if ok {
				return i, nil
			}
		}
		return -1, nil
	case Sequential:
		if len(slots) == 0 {
			return -1, nil
		}
		i := len(slots) - 1
		ok, err := SlotSchedulable(append(append([]*App(nil), slots[i]...), app), method)
		if err != nil {
			return -1, err
		}
		if ok {
			return i, nil
		}
		return -1, nil
	case BestFit:
		best, bestU := -1, -1.0
		for i, group := range slots {
			cand := append(append([]*App(nil), group...), app)
			ok, err := SlotSchedulable(cand, method)
			if err != nil {
				return -1, err
			}
			if ok {
				if u := SlotUtilization(cand); u > bestU {
					best, bestU = i, u
				}
			}
		}
		return best, nil
	default:
		return -1, fmt.Errorf("sched: unknown policy %v", policy)
	}
}

func referenceExact(sorted []*App, method Method) (*Allocation, error) {
	ff, err := referenceAllocate(sorted, FirstFit, method)
	if err != nil {
		return nil, err
	}
	best := ff.Slots
	bestN := len(best)

	groups := make([][]*App, 0, len(sorted))
	var dfs func(i int) error
	dfs = func(i int) error {
		if len(groups) >= bestN {
			return nil
		}
		if i == len(sorted) {
			best = make([][]*App, len(groups))
			for g := range groups {
				best[g] = append([]*App(nil), groups[g]...)
			}
			bestN = len(best)
			return nil
		}
		app := sorted[i]
		for g := range groups {
			ok, err := SlotSchedulable(append(append([]*App(nil), groups[g]...), app), method)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			groups[g] = append(groups[g], app)
			if err := dfs(i + 1); err != nil {
				return err
			}
			groups[g] = groups[g][:len(groups[g])-1]
		}
		if len(groups)+1 < bestN {
			ok, err := SlotSchedulable([]*App{app}, method)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("sched: app %q unschedulable even on a dedicated TT slot", app.Name)
			}
			groups = append(groups, []*App{app})
			if err := dfs(i + 1); err != nil {
				return err
			}
			groups = groups[:len(groups)-1]
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return nil, err
	}
	return &Allocation{Slots: best, Policy: Exact, Method: method}, nil
}

// referenceRace is AllocateRace over referenceAllocate, run sequentially.
func referenceRace(apps []*App, method Method) (*Allocation, error) {
	var best *Allocation
	errs := make([]error, len(DefaultRacePolicies))
	for i, p := range DefaultRacePolicies {
		al, err := referenceAllocate(apps, p, method)
		if errs[i] = err; err == nil && (best == nil || al.NumSlots() < best.NumSlots()) {
			best = al
		}
	}
	if best == nil {
		return nil, fmt.Errorf("sched: no raced policy produced a feasible allocation: %w", errors.Join(errs...))
	}
	return best, nil
}

// tiedFleet is randomFleet in shuffled input order with about a quarter
// of the deadlines tied to an earlier app's, where that deadline lies in
// the app's own range; ties are then broken by name.
func tiedFleet(r *rand.Rand, n int) []*App {
	apps := randomFleet(r, n)
	for i := 1; i < len(apps); i++ {
		if r.Intn(4) != 0 {
			continue
		}
		a := apps[i]
		if d := apps[r.Intn(i)].Deadline; d >= a.Model.XiTT()*1.2 && d <= a.R {
			a.Deadline = d
		}
	}
	r.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// maybeDoom gives one app in ten fleets a deadline below its own ξTT, so
// the fleet is infeasible under every policy and the error paths get
// compared too.
func maybeDoom(r *rand.Rand, apps []*App) {
	if len(apps) > 0 && r.Intn(10) == 0 {
		a := apps[r.Intn(len(apps))]
		a.Deadline = a.Model.XiTT() / 2
	}
}

func sameAllocation(got, want *Allocation, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %q, reference error %q", gotErr, wantErr)
		}
		return nil
	}
	if got.Policy != want.Policy || got.Method != want.Method {
		return fmt.Errorf("policy/method %v/%v, reference %v/%v", got.Policy, got.Method, want.Policy, want.Method)
	}
	if len(got.Slots) != len(want.Slots) {
		return fmt.Errorf("%d slots, reference %d", len(got.Slots), len(want.Slots))
	}
	for s := range want.Slots {
		if len(got.Slots[s]) != len(want.Slots[s]) {
			return fmt.Errorf("slot %d holds %d apps, reference %d", s, len(got.Slots[s]), len(want.Slots[s]))
		}
		for k := range want.Slots[s] {
			if got.Slots[s][k] != want.Slots[s][k] {
				return fmt.Errorf("slot %d position %d is %q, reference %q", s, k, got.Slots[s][k].Name, want.Slots[s][k].Name)
			}
		}
	}
	return nil
}

// sameResults compares a slot state's members with AnalyzeSlot's results
// for the same apps, bit for bit.
func sameResults(s *slotState, method Method) error {
	want, ok, err := AnalyzeSlot(s.apps(), method)
	if err != nil {
		return err
	}
	allOK := true
	for i, m := range s.members {
		w := want[i]
		got := Result{App: m.app, MaxWait: m.wait, WCRT: m.wcrt, Schedulable: m.ok, Interferers: i, Blocking: m.blocking}
		if got.App != w.App || got.Schedulable != w.Schedulable || got.Interferers != w.Interferers ||
			math.Float64bits(got.MaxWait) != math.Float64bits(w.MaxWait) ||
			math.Float64bits(got.WCRT) != math.Float64bits(w.WCRT) ||
			math.Float64bits(got.Blocking) != math.Float64bits(w.Blocking) {
			return fmt.Errorf("member %d: state %+v, AnalyzeSlot %+v", i, got, w)
		}
		allOK = allOK && m.ok
	}
	if allOK != ok {
		return fmt.Errorf("state says schedulable=%v, AnalyzeSlot %v", allOK, ok)
	}
	return nil
}

// propSeeds is how many random fleets the oracle tests draw.
func propSeeds() int {
	if testing.Short() {
		return 150
	}
	return 600
}

// Property: the incremental allocator returns the reference allocator's
// slots (the same *App pointers in the same order) and error strings on
// random fleets of 1–60 apps with tied deadlines (one in ten infeasible),
// under every polynomial policy and the race, with both methods; and every
// slot it commits holds exactly the per-app results AnalyzeSlot reports
// for it.
func TestPropIncrementalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < int64(propSeeds()); seed++ {
		r := rand.New(rand.NewSource(seed))
		apps := tiedFleet(r, 1+r.Intn(60))
		maybeDoom(r, apps)
		for _, method := range []Method{ClosedForm, FixedPoint} {
			for _, policy := range DefaultRacePolicies {
				got, gotErr := AllocateContext(context.Background(), apps, policy, method)
				want, wantErr := referenceAllocate(apps, policy, method)
				if err := sameAllocation(got, want, gotErr, wantErr); err != nil {
					t.Fatalf("seed %d, %d apps, %v/%v: %v", seed, len(apps), policy, method, err)
				}
				slots, err := allocateGreedy(SortByPriority(apps), policy, method)
				if err != nil {
					continue
				}
				for s := range slots {
					if err := sameResults(&slots[s], method); err != nil {
						t.Fatalf("seed %d, %v/%v, slot %d: %v", seed, policy, method, s, err)
					}
				}
			}
			got, gotErr := AllocateRace(apps, nil, method)
			want, wantErr := referenceRace(apps, method)
			if err := sameAllocation(got, want, gotErr, wantErr); err != nil {
				t.Fatalf("seed %d, %d apps, race/%v: %v", seed, len(apps), method, err)
			}
		}
	}
}

// Property: the branch-and-bound search, which joins and leaves slots as
// it backtracks, finds the reference search's partition (or error) on
// fleets of up to 10 apps.
func TestPropExactMatchesReference(t *testing.T) {
	for seed := int64(0); seed < int64(propSeeds())/3; seed++ {
		r := rand.New(rand.NewSource(seed))
		apps := tiedFleet(r, 1+r.Intn(10))
		maybeDoom(r, apps)
		for _, method := range []Method{ClosedForm, FixedPoint} {
			got, gotErr := AllocateContext(context.Background(), apps, Exact, method)
			want, wantErr := referenceAllocate(apps, Exact, method)
			if err := sameAllocation(got, want, gotErr, wantErr); err != nil {
				t.Fatalf("seed %d, %d apps, exact/%v: %v", seed, len(apps), method, err)
			}
		}
	}
}

// Property: a slot state driven through random joins and leaves — the
// moves of the exact search — always agrees with AnalyzeSlot: admits
// answers SlotSchedulable of the slot plus the joiner, and after every
// move each member's results match bit for bit, so leave restores a slot
// exactly.
func TestPropSlotStateJoinLeave(t *testing.T) {
	for seed := int64(0); seed < int64(propSeeds()); seed++ {
		r := rand.New(rand.NewSource(seed))
		sorted := SortByPriority(tiedFleet(r, 2+r.Intn(20)))
		method := Method(r.Intn(2))
		var s slotState
		var trail []member
		next := 0 // sorted[next:] may still join
		for step := 0; step < 60 && next < len(sorted); step++ {
			if len(s.members) > 0 && r.Intn(3) == 0 {
				s.leave(&trail)
			} else {
				// Skip ahead some apps so joiners vary, keeping priority order.
				next += r.Intn(3)
				if next >= len(sorted) {
					break
				}
				c := candidate(sorted[next])
				want, err := SlotSchedulable(append(s.apps(), c.app), method)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.admits(c, method); got != want {
					t.Fatalf("seed %d step %d: admits = %v, SlotSchedulable = %v", seed, step, got, want)
				}
				if !want {
					next++
					continue
				}
				s.join(c, method, &trail)
				next++
			}
			if err := sameResults(&s, method); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// The candidate check allocates nothing, under either method.
func TestAdmitsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sorted := SortByPriority(randomFleet(r, 40))
	for _, method := range []Method{ClosedForm, FixedPoint} {
		slots, err := allocateGreedy(sorted[:30], FirstFit, method)
		if err != nil {
			t.Fatal(err)
		}
		c := candidate(sorted[30])
		if n := testing.AllocsPerRun(100, func() {
			for i := range slots {
				slots[i].admits(c, method)
			}
		}); n != 0 {
			t.Fatalf("%v: admits allocates %.1f times per pass", method, n)
		}
	}
}

// A joiner whose higher-priority utilisation is exactly 1 has no finite
// wait bound (ErrOverUtilized), even though an infinite wait would put its
// modelled response at ξET, inside its deadline: the slot must refuse it,
// as AnalyzeSlot does.
func TestAdmitsRefusesUtilisationOne(t *testing.T) {
	// ξM = 1 every second: m = 1. The slope −1 keeps its own response at
	// 1 s under any blocking below 1 s.
	hot, err := pwl.SimpleMonotonic(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	calm, err := pwl.SimpleMonotonic(0.5, 2) // ξET = 2 ≤ deadline
	if err != nil {
		t.Fatal(err)
	}
	high := &App{Name: "hot", R: 1, Deadline: 1, Model: hot}
	low := &App{Name: "calm", R: 10, Deadline: 5, Model: calm}
	for _, method := range []Method{ClosedForm, FixedPoint} {
		results, ok, err := AnalyzeSlot([]*App{high, low}, method)
		if err != nil || ok || !results[0].Schedulable {
			t.Fatalf("%v: AnalyzeSlot = %+v, %v, %v; want only the joiner to miss", method, results, ok, err)
		}
		var s slotState
		s.join(candidate(high), method, nil)
		if s.admits(candidate(low), method) {
			t.Fatalf("%v: admits a joiner behind utilisation 1", method)
		}
	}
}
