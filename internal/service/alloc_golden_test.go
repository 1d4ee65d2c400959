package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// goldenFleet builds n paper-style apps in wire form from a fixed seed:
// non-monotonic models with ξM ≥ ξTT, inter-arrival times a few ξET long
// and deadlines in [1.2 ξTT, r], so every app fits a slot of its own. About
// a quarter of the apps take an earlier app's deadline where it lies in
// their own range, and names are a shuffled numbering, so priority ties
// are broken by name in an order unrelated to the input order.
func goldenFleet(seed int64, n int) []AppSpec {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(n)
	apps := make([]AppSpec, n)
	for i := range apps {
		xiTT := 0.2 + 2*r.Float64()
		xiET := xiTT * (2 + 4*r.Float64())
		kp := xiET * (0.05 + 0.3*r.Float64())
		xiM := xiTT * (1 + r.Float64())
		rr := xiET * (1.2 + 6*r.Float64())
		dl := xiTT*1.2 + (rr-xiTT*1.2)*r.Float64()
		if i > 0 && r.Intn(4) == 0 {
			if tied := apps[r.Intn(i)].Deadline; tied >= xiTT*1.2 && tied <= rr {
				dl = tied
			}
		}
		apps[i] = AppSpec{
			Name:     fmt.Sprintf("app-%03d", perm[i]),
			R:        rr,
			Deadline: dl,
			Model:    ModelSpec{Kind: "non-monotonic", XiTT: xiTT, Kp: kp, XiM: xiM, XiET: xiET},
		}
	}
	return apps
}

// goldenAllocRequests lists the fleets whose replies are pinned in
// testdata/alloc_golden.ndjson: a seeded 300-app fleet under every
// polynomial policy and the race, Table I (non-monotonic and conservative
// models) under all five policies, a seeded 10-app fleet under the exact
// search, and a fleet with an app that misses its deadline even alone —
// each under both wait-time methods.
func goldenAllocRequests(t testing.TB) []FleetRequest {
	t.Helper()
	var tableI FleetRequest
	if err := json.Unmarshal([]byte(tableIJSON), &tableI); err != nil {
		t.Fatal(err)
	}
	conservative := make([]AppSpec, len(tableI.Apps))
	for i, a := range tableI.Apps {
		a.Model.Kind, a.Model.XiTT = "conservative", 0
		conservative[i] = a
	}
	doomed := append(goldenFleet(3, 8), AppSpec{Name: "doomed", R: 10, Deadline: 1,
		Model: ModelSpec{Kind: "non-monotonic", XiTT: 2, Kp: 1, XiM: 3, XiET: 6}})
	fleets := []struct {
		name     string
		apps     []AppSpec
		policies []string
	}{
		{"random300", goldenFleet(1, 300), []string{"first-fit", "sequential", "best-fit", "race"}},
		{"tableI", tableI.Apps, []string{"first-fit", "sequential", "best-fit", "exact", "race"}},
		{"tableI-conservative", conservative, []string{"first-fit", "sequential", "best-fit", "exact", "race"}},
		{"random10", goldenFleet(2, 10), []string{"exact"}},
		{"doomed", doomed, []string{"first-fit", "sequential", "best-fit", "exact", "race"}},
	}
	var reqs []FleetRequest
	for _, f := range fleets {
		for _, policy := range f.policies {
			for _, method := range []string{"closed-form", "fixed-point"} {
				reqs = append(reqs, FleetRequest{
					Name:   f.name + "/" + policy + "/" + method,
					Policy: policy,
					Method: method,
					Apps:   f.apps,
				})
			}
		}
	}
	return reqs
}

// The allocation replies are pinned byte for byte: slots, per-app waits
// and response times (to the last float digit), tie-breaks and the
// infeasibility messages. The golden file was recorded from the
// allocator that re-analysed every candidate slot from scratch with
// AnalyzeSlot; it must never be regenerated from the code it checks.
func TestAllocateRepliesMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/alloc_golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	results, err := AllocateFleets(context.Background(), goldenAllocRequests(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, res := range results {
		if err := EncodeResult(&got, res); err != nil {
			t.Fatal(err)
		}
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d reply lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("reply %d differs from the golden file\n got %.400s\nwant %.400s", i, gotLines[i], wantLines[i])
		}
	}
}
