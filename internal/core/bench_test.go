package core

import (
	"context"
	"testing"
)

// BenchmarkDeriveFleetWarm measures the steady-state fleet sweep: every
// application still matches its derivation memo, so each iteration is the
// pure warm path (pointer loads plus bit-exact snapshot compares) with
// zero allocations — the per-request cost of a service re-deriving an
// unchanged fleet.
func BenchmarkDeriveFleetWarm(b *testing.B) {
	apps := fleetApps()
	out := make([]*Derived, len(apps))
	ctx := context.Background()
	if err := DeriveFleetInto(ctx, out, apps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DeriveFleetInto(ctx, out, apps); err != nil {
			b.Fatal(err)
		}
	}
}
