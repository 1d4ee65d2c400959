package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"cpsdyn/internal/pwl"
)

// tableIRow holds one row of the paper's Table I (all values in seconds).
type tableIRow struct {
	name                              string
	r, xid, xiTT, xiET, xiM, kp, xipM float64
}

var tableI = []tableIRow{
	{"C1", 200, 9.5, 1.68, 11.62, 5.30, 2.27, 6.59},
	{"C2", 20, 6.25, 2.58, 8.59, 2.95, 1.34, 3.50},
	{"C3", 15, 2, 0.39, 3.97, 0.64, 0.69, 0.77},
	{"C4", 200, 7.5, 2.50, 10.40, 4.03, 1.92, 4.94},
	{"C5", 20, 8.5, 2.75, 10.63, 4.58, 1.97, 5.62},
	{"C6", 6, 6, 0.71, 7.94, 0.92, 0.67, 1.01},
}

// paperApps builds the six case-study apps with the paper's two-segment
// non-monotonic dwell models.
func paperApps(t testing.TB) []*App {
	t.Helper()
	apps := make([]*App, 0, len(tableI))
	for _, row := range tableI {
		m, err := pwl.PaperNonMonotonic(row.xiTT, row.kp, row.xiM, row.xiET)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		apps = append(apps, &App{Name: row.name, R: row.r, Deadline: row.xid, Model: m})
	}
	return apps
}

// paperAppsConservative builds the apps with the conservative monotonic
// models (the ξ′M column of Table I).
func paperAppsConservative(t testing.TB) []*App {
	t.Helper()
	apps := make([]*App, 0, len(tableI))
	for _, row := range tableI {
		m, err := pwl.PaperConservative(row.kp, row.xiM, row.xiET)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		apps = append(apps, &App{Name: row.name, R: row.r, Deadline: row.xid, Model: m})
	}
	return apps
}

func appByName(apps []*App, name string) *App {
	for _, a := range apps {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func TestAppValidate(t *testing.T) {
	m, _ := pwl.SimpleMonotonic(1, 2)
	good := &App{Name: "a", R: 10, Deadline: 5, Model: m}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*App{
		{Name: "noModel", R: 10, Deadline: 5},
		{Name: "badR", R: 0, Deadline: 5, Model: m},
		{Name: "badD", R: 10, Deadline: 0, Model: m},
		{Name: "dGtR", R: 4, Deadline: 5, Model: m},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("app %q: want validation error", bad.Name)
		}
	}
}

func TestSortByPriority(t *testing.T) {
	apps := paperApps(t)
	sorted := SortByPriority(apps)
	want := []string{"C3", "C6", "C2", "C4", "C5", "C1"}
	for i, name := range want {
		if sorted[i].Name != name {
			t.Fatalf("priority order %v, want %v at %d", sorted[i].Name, name, i)
		}
	}
}

// §V walk-through: C6 sharing S1 with C3 has k̂wait,6 = 0.669 and
// ξ̂6 = 1.589 under the closed-form bound.
func TestPaperWalkthroughC6(t *testing.T) {
	apps := paperApps(t)
	slot := []*App{appByName(apps, "C3"), appByName(apps, "C6")}
	results, ok, err := AnalyzeSlot(slot, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("C3+C6 should be schedulable on one slot")
	}
	var c6 Result
	for _, r := range results {
		if r.App.Name == "C6" {
			c6 = r
		}
	}
	if math.Abs(c6.MaxWait-0.669) > 0.001 {
		t.Fatalf("k̂wait,6 = %.4f, want 0.669", c6.MaxWait)
	}
	if math.Abs(c6.WCRT-1.589) > 0.002 {
		t.Fatalf("ξ̂6 = %.4f, want 1.589", c6.WCRT)
	}
}

// §V walk-through: C3 with C6 on the slot has k̂wait,3 = ξM6 = 0.92 and
// ξ̂3 = 1.515.
func TestPaperWalkthroughC3(t *testing.T) {
	apps := paperApps(t)
	slot := []*App{appByName(apps, "C3"), appByName(apps, "C6")}
	results, _, err := AnalyzeSlot(slot, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	var c3 Result
	for _, r := range results {
		if r.App.Name == "C3" {
			c3 = r
		}
	}
	if math.Abs(c3.MaxWait-0.92) > 1e-9 {
		t.Fatalf("k̂wait,3 = %.4f, want 0.92", c3.MaxWait)
	}
	if math.Abs(c3.WCRT-1.515) > 0.002 {
		t.Fatalf("ξ̂3 = %.4f, want 1.515", c3.WCRT)
	}
	if c3.Blocking != 0.92 {
		t.Fatalf("blocking for C3 = %g, want ξM6 = 0.92", c3.Blocking)
	}
}

// §V: adding C2 to {C3, C6} breaks C3's deadline.
func TestPaperC2BreaksSlot1(t *testing.T) {
	apps := paperApps(t)
	slot := []*App{appByName(apps, "C3"), appByName(apps, "C6"), appByName(apps, "C2")}
	results, ok, err := AnalyzeSlot(slot, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("C3+C6+C2 must not be schedulable")
	}
	for _, r := range results {
		if r.App.Name == "C3" && r.Schedulable {
			t.Fatal("C3 should miss its deadline with C2 added")
		}
	}
}

// §V monotonic walk-through: C2 with C4 has k̂′wait,2 = ξ′M4 = 4.94 and
// ξ̂′2 = 6.426 > 6.25.
func TestPaperMonotonicC2C4(t *testing.T) {
	apps := paperAppsConservative(t)
	slot := []*App{appByName(apps, "C2"), appByName(apps, "C4")}
	results, ok, err := AnalyzeSlot(slot, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("conservative C2+C4 must not be schedulable")
	}
	var c2 Result
	for _, r := range results {
		if r.App.Name == "C2" {
			c2 = r
		}
	}
	if math.Abs(c2.MaxWait-4.94) > 0.006 {
		t.Fatalf("k̂′wait,2 = %.4f, want 4.94", c2.MaxWait)
	}
	if math.Abs(c2.WCRT-6.426) > 0.01 {
		t.Fatalf("ξ̂′2 = %.4f, want 6.426", c2.WCRT)
	}
}

// Headline result: the non-monotonic model needs 3 TT slots with the
// paper's groupings {C3,C6}, {C2,C4}, {C5,C1}.
func TestPaperAllocationNonMonotonic(t *testing.T) {
	for _, policy := range []Policy{FirstFit, Sequential} {
		al, err := AllocateContext(context.Background(), paperApps(t), policy, ClosedForm)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if al.NumSlots() != 3 {
			t.Fatalf("%v: %d slots, want 3", policy, al.NumSlots())
		}
		wantGroups := map[string]int{"C3": 0, "C6": 0, "C2": 1, "C4": 1, "C5": 2, "C1": 2}
		for name, slot := range wantGroups {
			if got := al.SlotOf(name); got != slot {
				t.Errorf("%v: %s on slot %d, want %d", policy, name, got+1, slot+1)
			}
		}
		if err := al.Verify(); err != nil {
			t.Fatalf("%v: allocation does not verify: %v", policy, err)
		}
	}
}

// Headline result: the conservative monotonic model needs 5 TT slots
// ({C3,C6} and four singletons) — 67% more than the non-monotonic 3.
func TestPaperAllocationConservative(t *testing.T) {
	for _, policy := range []Policy{FirstFit, Sequential} {
		al, err := AllocateContext(context.Background(), paperAppsConservative(t), policy, ClosedForm)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if al.NumSlots() != 5 {
			t.Fatalf("%v: %d slots, want 5", policy, al.NumSlots())
		}
		if al.SlotOf("C3") != al.SlotOf("C6") {
			t.Errorf("%v: C3 and C6 should still share slot 1", policy)
		}
		if err := al.Verify(); err != nil {
			t.Fatalf("%v: allocation does not verify: %v", policy, err)
		}
	}
}

func TestHighestPriorityAloneHasZeroWait(t *testing.T) {
	apps := paperApps(t)
	results, ok, err := AnalyzeSlot([]*App{appByName(apps, "C3")}, ClosedForm)
	if err != nil || !ok {
		t.Fatalf("C3 alone: ok=%v err=%v", ok, err)
	}
	if results[0].MaxWait != 0 {
		t.Fatalf("k̂wait = %g, want 0", results[0].MaxWait)
	}
	if math.Abs(results[0].WCRT-0.39) > 1e-9 {
		t.Fatalf("ξ̂ = %g, want ξTT = 0.39", results[0].WCRT)
	}
}

func TestFixedPointNotLooserThanClosedForm(t *testing.T) {
	apps := SortByPriority(paperApps(t))
	for i := range apps {
		cf, err1 := MaxWait(apps, i, ClosedForm)
		fp, err2 := MaxWait(apps, i, FixedPoint)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v, %v", err1, err2)
		}
		if fp > cf+1e-9 {
			t.Fatalf("app %s: fixed point %g exceeds closed form %g", apps[i].Name, fp, cf)
		}
	}
}

func TestOverUtilizedSlot(t *testing.T) {
	// Two high-rate apps whose combined utilisation exceeds 1 for a third.
	m, _ := pwl.PaperNonMonotonic(0.5, 0.6, 0.9, 2.0)
	apps := []*App{
		{Name: "h1", R: 1.5, Deadline: 1.4, Model: m},
		{Name: "h2", R: 1.5, Deadline: 1.45, Model: m},
		{Name: "low", R: 100, Deadline: 50, Model: m},
	}
	results, ok, err := AnalyzeSlot(apps, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("over-utilised slot must not be schedulable")
	}
	low := results[len(results)-1]
	if low.App.Name != "low" || !math.IsInf(low.WCRT, 1) {
		t.Fatalf("lowest-priority result = %+v, want infinite WCRT", low)
	}
}

func TestAllocateUnschedulableAloneErrors(t *testing.T) {
	m, _ := pwl.PaperNonMonotonic(3.0, 3.5, 4.0, 8.0) // ξTT = 3 > deadline
	apps := []*App{{Name: "impossible", R: 10, Deadline: 2, Model: m}}
	if _, err := AllocateContext(context.Background(), apps, FirstFit, ClosedForm); err == nil {
		t.Fatal("want error for app unschedulable alone")
	}
}

func TestAllocateEmpty(t *testing.T) {
	al, err := AllocateContext(context.Background(), nil, FirstFit, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumSlots() != 0 {
		t.Fatalf("empty allocation has %d slots", al.NumSlots())
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	apps := paperApps(t)
	exact, err := AllocateContext(context.Background(), apps, Exact, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{FirstFit, Sequential, BestFit} {
		h, err := AllocateContext(context.Background(), apps, policy, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumSlots() > h.NumSlots() {
			t.Fatalf("exact uses %d slots, %v uses %d", exact.NumSlots(), policy, h.NumSlots())
		}
	}
	if exact.NumSlots() != 3 {
		t.Fatalf("exact allocation uses %d slots, want 3", exact.NumSlots())
	}
}

func TestBestFitAllocatesPaperCase(t *testing.T) {
	al, err := AllocateContext(context.Background(), paperApps(t), BestFit, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Verify(); err != nil {
		t.Fatal(err)
	}
	if al.NumSlots() > 5 {
		t.Fatalf("best-fit uses %d slots", al.NumSlots())
	}
}

func TestSlotOfMissing(t *testing.T) {
	al := &Allocation{}
	if got := al.SlotOf("nope"); got != -1 {
		t.Fatalf("SlotOf missing = %d, want -1", got)
	}
}

func TestSlotUtilization(t *testing.T) {
	apps := paperApps(t)
	u := SlotUtilization([]*App{appByName(apps, "C3"), appByName(apps, "C6")})
	want := 0.64/15 + 0.92/6
	if math.Abs(u-want) > 1e-12 {
		t.Fatalf("utilisation = %g, want %g", u, want)
	}
}

func TestMethodAndPolicyStrings(t *testing.T) {
	if ClosedForm.String() != "closed-form" || FixedPoint.String() != "fixed-point" {
		t.Fatal("method strings wrong")
	}
	if FirstFit.String() != "first-fit" || Sequential.String() != "sequential" ||
		BestFit.String() != "best-fit" || Exact.String() != "exact" {
		t.Fatal("policy strings wrong")
	}
	if Method(99).String() == "" || Policy(99).String() == "" {
		t.Fatal("unknown enum strings must not be empty")
	}
}

func TestErrOverUtilizedIs(t *testing.T) {
	m, _ := pwl.SimpleMonotonic(1, 2)
	apps := []*App{
		{Name: "a", R: 1.5, Deadline: 1.4, Model: m},
		{Name: "b", R: 1.5, Deadline: 1.45, Model: m},
		{Name: "c", R: 100, Deadline: 50, Model: m},
	}
	sorted := SortByPriority(apps)
	_, err := MaxWait(sorted, 2, ClosedForm)
	if !errors.Is(err, ErrOverUtilized) {
		t.Fatalf("err = %v, want ErrOverUtilized", err)
	}
}

// The exact search is exponential: this 40-app fleet runs for seconds
// (over 8 s on a 2-vCPU host). Its context must stop it promptly, with an
// error that unwraps to the context's.
func TestExactStopsWhenContextExpires(t *testing.T) {
	apps := randomFleet(rand.New(rand.NewSource(2)), 40)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	al, err := AllocateContext(ctx, apps, Exact, ClosedForm)
	if !errors.Is(err, context.DeadlineExceeded) || al != nil {
		t.Fatalf("AllocateContext = %v, %v; want a context.DeadlineExceeded error", al, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("the search stopped %v after starting, %v after its deadline", took, took-50*time.Millisecond)
	}
	// The heuristics never look at the context.
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := AllocateContext(cancelled, apps, FirstFit, ClosedForm); err != nil {
		t.Fatal(err)
	}
}

// NaN is not a positive time: a NaN deadline would scramble the priority
// order of the finite apps too ({2, NaN, 1} sorts as 2, NaN, 1).
func TestValidateRejectsNaN(t *testing.T) {
	m, _ := pwl.SimpleMonotonic(1, 2)
	nan := math.NaN()
	for _, bad := range []*App{
		{Name: "nanR", R: nan, Deadline: 5, Model: m},
		{Name: "nanD", R: 10, Deadline: nan, Model: m},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("app %q: want validation error", bad.Name)
		}
		if _, err := AllocateContext(context.Background(), []*App{bad}, FirstFit, ClosedForm); err == nil {
			t.Errorf("app %q: Allocate accepted it", bad.Name)
		}
	}
	inf := &App{Name: "infR", R: math.Inf(1), Deadline: 5, Model: m}
	if err := inf.Validate(); err != nil {
		t.Errorf("an infinite inter-arrival time is valid: %v", err)
	}
}
