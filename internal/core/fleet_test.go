package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsdyn/internal/sched"
)

func fleetApps() []*Application {
	return []*Application{
		servoApp("A", 1, 2.0),
		servoApp("B", 2, 4.0),
		servoApp("C", 3, 6.0),
		servoApp("D", 4, 7.0),
	}
}

// The concurrent engine must produce exactly what sequential DeriveContext
// does, in input order.
func TestDeriveFleetMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq := fleetApps()
	want := make([]*Derived, len(seq))
	for i, a := range seq {
		d, err := a.DeriveContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	apps := fleetApps()
	got, err := DeriveFleet(ctx, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].App != apps[i] {
			t.Fatalf("result %d lost input order", i)
		}
		g := *got[i]
		g.App = want[i].App
		if !reflect.DeepEqual(&g, want[i]) {
			t.Fatalf("result %d differs from sequential DeriveContext", i)
		}
	}
}

// A poisoned application must not sink the diagnostics of the others: every
// failure is reported, successes are discarded, and the error names each
// offending app.
func TestDeriveFleetAggregatesErrors(t *testing.T) {
	apps := fleetApps()
	apps[1].H = 0                                  // invalid sampling period
	apps[3].PolesTT = []complex128{1.5, 0.6, 0.05} // unstable design
	out, err := DeriveFleet(context.Background(), apps)
	if err == nil {
		t.Fatal("want error for poisoned fleet")
	}
	if out != nil {
		t.Fatal("want nil results on error")
	}
	for _, frag := range []string{`app "B"`, "switching: D:"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error does not mention %q: %v", frag, err)
		}
	}
	if strings.Contains(err.Error(), `"A"`) || strings.Contains(err.Error(), `"C"`) {
		t.Errorf("error mentions healthy apps: %v", err)
	}
	// The joined error must expose the individual errors to errors.As/Is
	// unwrapping (errors.Join contract).
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("want a joined error with 2 members, got %T: %v", err, err)
	}
}

func TestDeriveFleetEmpty(t *testing.T) {
	out, err := DeriveFleet(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty fleet: out=%v err=%v", out, err)
	}
}

// Identical plant/timing pairs must be computed once: the second app is
// served the first app's derivation bundle, and with it the same
// discretisations and dwell curve.
func TestDeriveCacheMemoizesIdenticalPlants(t *testing.T) {
	ResetDeriveCache()
	apps := []*Application{servoApp("A", 1, 3), servoApp("B", 2, 3)}
	fleet, err := DeriveFleet(context.Background(), apps)
	if err != nil {
		t.Fatal(err)
	}
	st := DeriveCacheStats()
	// 2 discretisations + 1 curve computed; the twin app hits the bundle
	// once, whether it finds it filled or waits on the fill.
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (2 discretisations + 1 curve)", st.Misses)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (the twin app's bundle lookup)", st.Hits)
	}
	if st.Entries != 4 || st.Bytes <= 0 {
		t.Fatalf("occupancy = %d entries / %d bytes, want 4 entries (2 discretisations, 1 curve, 1 bundle) and positive bytes", st.Entries, st.Bytes)
	}
	// Cache hits share the immutable intermediates outright.
	if fleet[0].Curve != fleet[1].Curve {
		t.Fatal("identical dynamics should share one cached dwell curve")
	}
	if fleet[0].DiscTT != fleet[1].DiscTT || fleet[0].DiscET != fleet[1].DiscET {
		t.Fatal("identical plant+timing should share cached discretisations")
	}
}

// Derive must behave identically whether or not its intermediates are
// already cached.
func TestDeriveColdVsWarmCache(t *testing.T) {
	ResetDeriveCache()
	cold, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := servoApp("servo", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Curve, warm.Curve) || !reflect.DeepEqual(cold.KTT, warm.KTT) {
		t.Fatal("warm-cache Derive differs from cold")
	}
}

// A cancelled context aborts the fleet derivation with ctx.Err() and leaves
// the shared cache consistent: the identical derivation succeeds afterwards
// (no poisoned single-flight entries, no stuck in-flight bookkeeping).
func TestDeriveFleetCancelledLeavesCacheConsistent(t *testing.T) {
	ResetDeriveCache()
	defer ResetDeriveCache()
	apps := fleetApps()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DeriveFleet(ctx, apps); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out, err := DeriveFleet(context.Background(), apps)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if len(out) != len(apps) {
		t.Fatalf("%d results, want %d", len(out), len(apps))
	}
	if st := DeriveCacheStats(); st.Entries == 0 {
		t.Fatal("cache empty after the successful retry")
	}
}

// Cancelling mid-derivation returns promptly (the settling simulations have
// sub-millisecond cancellation points) and never wedges later derivations.
func TestDeriveContextCancelMidFlight(t *testing.T) {
	ResetDeriveCache()
	defer ResetDeriveCache()
	app := servoApp("cancel-mid", 1, 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := app.DeriveContext(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Depending on scheduling the derive either observed the
		// cancellation or had already finished; both are fine — hanging is
		// the bug.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled derive did not return promptly")
	}
	if _, err := app.DeriveContext(context.Background()); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

func TestAllocateSlotsRace(t *testing.T) {
	fleet, err := DeriveFleet(context.Background(), fleetApps())
	if err != nil {
		t.Fatal(err)
	}
	raced, err := AllocateSlotsRace(fleet, NonMonotonic, nil, sched.ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if err := raced.Verify(); err != nil {
		t.Fatal(err)
	}
	// The race winner can never use more slots than any single contender.
	for _, p := range sched.DefaultRacePolicies {
		al, err := AllocateSlots(context.Background(), fleet, NonMonotonic, p, sched.ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		if raced.NumSlots() > al.NumSlots() {
			t.Fatalf("race used %d slots, %v alone used %d", raced.NumSlots(), p, al.NumSlots())
		}
	}
}

// Concurrent derivations of one key share one failing computation, and each
// must still get an error that names itself and no other app. Regression:
// the curve's single-flight entry handed its owner's error, built from the
// owner's name, to every waiter ("switching: a: …" for app d).
func TestSharedFailureNamesEachApp(t *testing.T) {
	ResetDeriveCache()
	defer ResetDeriveCache()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for round := 0; round < 300; round++ {
		start := make(chan struct{})
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			app := servoApp(name, i+1, 3)
			app.PolesET = []complex128{1.2, 0.88, 0.1} // unstable ET loop
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = app.DeriveContext(context.Background())
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err == nil {
				t.Fatalf("round %d: app %s derived an unstable design", round, names[i])
			}
			if want := "switching: " + names[i] + ": "; !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("round %d: app %s got %q, want it to start with %q", round, names[i], err, want)
			}
			for _, other := range names {
				if other != names[i] && strings.Contains(err.Error(), "switching: "+other+":") {
					t.Fatalf("round %d: app %s got an error naming app %s: %v", round, names[i], other, err)
				}
			}
		}
	}
}
