package pwl

import (
	"math"
	"testing"
)

// tableC3 builds the paper's C3 model from Table I:
// ξTT=0.39, ξM=0.64, kp=0.69, ξET=3.97, ξ′M=0.77.
func tableC3(t *testing.T) *Model {
	t.Helper()
	m, err := PaperNonMonotonic(0.39, 0.69, 0.64, 3.97)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel("x", []Point{{0, 1}}); err == nil {
		t.Fatal("want error for single breakpoint")
	}
	if _, err := NewModel("x", []Point{{0, 1}, {0, 0.5}}); err == nil {
		t.Fatal("want error for non-increasing waits")
	}
	if _, err := NewModel("x", []Point{{0, -1}, {1, 0}}); err == nil {
		t.Fatal("want error for negative dwell")
	}
}

func TestDwellEndpoints(t *testing.T) {
	m := tableC3(t)
	if got := m.Dwell(0); math.Abs(got-0.39) > 1e-12 {
		t.Fatalf("Dwell(0) = %g, want 0.39", got)
	}
	if got := m.Dwell(0.69); math.Abs(got-0.64) > 1e-12 {
		t.Fatalf("Dwell(kp) = %g, want 0.64", got)
	}
	if got := m.Dwell(3.97); got != 0 {
		t.Fatalf("Dwell(ξET) = %g, want 0", got)
	}
	if got := m.Dwell(10); got != 0 {
		t.Fatalf("Dwell(beyond) = %g, want 0", got)
	}
	if got := m.Dwell(-1); math.Abs(got-0.39) > 1e-12 {
		t.Fatalf("Dwell(-1) = %g, want clamp to 0.39", got)
	}
}

// The paper computes ξ̂3 = 1.515 from k̂wait,3 = 0.92 on this very model.
func TestPaperC3Response(t *testing.T) {
	m := tableC3(t)
	got := m.Response(0.92)
	if math.Abs(got-1.515) > 0.002 {
		t.Fatalf("Response(0.92) = %g, want ≈1.515", got)
	}
}

// The paper computes ξ̂6 = 1.589 from k̂wait,6 = 0.669 on C6's model:
// ξTT=0.71, ξM=0.92, kp=0.67, ξET=7.94.
func TestPaperC6Response(t *testing.T) {
	m, err := PaperNonMonotonic(0.71, 0.67, 0.92, 7.94)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Response(0.669)
	if math.Abs(got-1.589) > 0.002 {
		t.Fatalf("Response(0.669) = %g, want ≈1.589", got)
	}
}

// All seven ξ′M values of Table I follow from the conservative construction.
func TestPaperConservativeXiPrimeM(t *testing.T) {
	cases := []struct {
		name                string
		kp, xiM, xiET, want float64
	}{
		{"C1", 2.27, 5.30, 11.62, 6.59},
		{"C2", 1.34, 2.95, 8.59, 3.50},
		{"C3", 0.69, 0.64, 3.97, 0.77},
		{"C4", 1.92, 4.03, 10.40, 4.94},
		{"C5", 1.97, 4.58, 10.63, 5.62},
		{"C6", 0.67, 0.92, 7.94, 1.01},
	}
	for _, c := range cases {
		m, err := PaperConservative(c.kp, c.xiM, c.xiET)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.MaxDwell(); math.Abs(got-c.want) > 0.006 {
			t.Errorf("%s: ξ′M = %g, want %g", c.name, got, c.want)
		}
	}
}

// The paper's ξ̂′2 = 6.426 at k̂′wait,2 = 4.94 on C2's conservative model.
func TestPaperC2ConservativeResponse(t *testing.T) {
	m, err := PaperConservative(1.34, 2.95, 8.59)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Response(4.94)
	if math.Abs(got-6.426) > 0.005 {
		t.Fatalf("conservative Response(4.94) = %g, want ≈6.426", got)
	}
}

func TestConservativeDominatesNonMonotonic(t *testing.T) {
	nm := tableC3(t)
	cons, err := PaperConservative(0.69, 0.64, 3.97)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0.0; w <= 4.0; w += 0.01 {
		if cons.Dwell(w) < nm.Dwell(w)-1e-9 {
			t.Fatalf("conservative model below non-monotonic at wait %g", w)
		}
	}
}

func TestSimpleMonotonicIsBelowNonMonotonicInside(t *testing.T) {
	nm := tableC3(t)
	simple, err := SimpleMonotonic(0.39, 3.97)
	if err != nil {
		t.Fatal(err)
	}
	// Simple model is unsafe: strictly below the non-monotonic model at kp.
	if simple.Dwell(0.69) >= nm.Dwell(0.69) {
		t.Fatalf("simple model should under-estimate at the peak: %g vs %g",
			simple.Dwell(0.69), nm.Dwell(0.69))
	}
}

func TestMaxDwellAndPeakWait(t *testing.T) {
	m := tableC3(t)
	if got := m.MaxDwell(); math.Abs(got-0.64) > 1e-12 {
		t.Fatalf("MaxDwell = %g", got)
	}
	if got := m.PeakWait(); math.Abs(got-0.69) > 1e-12 {
		t.Fatalf("PeakWait = %g", got)
	}
	if got := m.XiTT(); math.Abs(got-0.39) > 1e-12 {
		t.Fatalf("XiTT = %g", got)
	}
	if got := m.xiET; math.Abs(got-3.97) > 1e-12 {
		t.Fatalf("xiET = %g", got)
	}
}

func TestResponseCappedAtXiET(t *testing.T) {
	m := tableC3(t)
	if got := m.Response(5.0); got != 3.97 {
		t.Fatalf("Response beyond ξET = %g, want ξET", got)
	}
	if got := m.Response(3.97); got != 3.97 {
		t.Fatalf("Response at ξET = %g, want ξET", got)
	}
}

// Every slope of the paper's C3 model is ≥ −1, so its total response
// wait + dwell never falls (the situation the paper describes as
// typical); a slope of −4.5 makes it fall.
func TestResponseIsMonotone(t *testing.T) {
	m := tableC3(t)
	prev := m.Response(0)
	for i := 1; i <= 450; i++ {
		w := float64(i) / 100
		r := m.Response(w)
		if r < prev-1e-12 {
			t.Fatalf("paper C3 response falls from %g to %g at wait %g", prev, r, w)
		}
		prev = r
	}
	steep, err := NewModel("x", []Point{{0, 5}, {1, 0.5}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r0, r1 := steep.Response(0), steep.Response(1); r1 >= r0 {
		t.Fatalf("slope −4.5: response %g at wait 1, want below %g at wait 0", r1, r0)
	}
}

func TestWorstResponseNonMonotoneModel(t *testing.T) {
	// With a segment steeper than −1 the worst response can occur before
	// maxWait; WorstResponse must account for the interior breakpoint.
	m, err := NewModel("x", []Point{{0, 1}, {1, 4}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Response at 1 is 5; response at 1.5 is 1.5+2=3.5.
	if got := m.WorstResponse(1.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("WorstResponse = %g, want 5", got)
	}
}

func TestDominates(t *testing.T) {
	m := tableC3(t)
	below := []Point{{0, 0.39}, {0.5, 0.5}, {1, 0.5}, {3.9, 0.01}}
	if !m.Dominates(below, 1e-9) {
		t.Fatal("model should dominate samples below it")
	}
	above := []Point{{0.69, 0.70}}
	if m.Dominates(above, 1e-9) {
		t.Fatal("model must not dominate a sample above its peak")
	}
}

func TestPaperModelValidation(t *testing.T) {
	if _, err := PaperNonMonotonic(0.5, 0, 0.9, 2); err == nil {
		t.Fatal("want error for kp = 0")
	}
	if _, err := PaperNonMonotonic(0.5, 2.5, 0.9, 2); err == nil {
		t.Fatal("want error for kp ≥ ξET")
	}
	if _, err := PaperNonMonotonic(0.9, 1, 0.5, 2); err == nil {
		t.Fatal("want error for ξM < ξTT")
	}
	if _, err := PaperConservative(3, 1, 2); err == nil {
		t.Fatal("want error for kp ≥ ξET")
	}
	if _, err := SimpleMonotonic(0.5, 0); err == nil {
		t.Fatal("want error for ξET = 0")
	}
}

// NaN compares false with everything, so without an explicit check a NaN
// breakpoint passes the ordering and sign checks and MaxDwell skips it.
func TestNewModelRejectsNaN(t *testing.T) {
	nan := math.NaN()
	if _, err := PaperNonMonotonic(0.3, 0.5, nan, 2); err == nil {
		t.Error("PaperNonMonotonic accepted ξM = NaN")
	}
	if _, err := PaperConservative(0.5, nan, 2); err == nil {
		t.Error("PaperConservative accepted ξM = NaN")
	}
	if _, err := SimpleMonotonic(nan, 2); err == nil {
		t.Error("SimpleMonotonic accepted ξTT = NaN")
	}
	for _, pts := range [][]Point{
		{{0, 1}, {nan, 0.5}, {2, 0}},
		{{0, 1}, {1, nan}, {2, 0}},
		{{nan, 1}, {2, 0}},
	} {
		if _, err := NewModel("x", pts); err == nil {
			t.Errorf("NewModel accepted %v", pts)
		}
	}
	// ±Inf keep their meaning: an infinite settle-under-ET wait is a model.
	if _, err := NewModel("x", []Point{{0, 1}, {math.Inf(1), 0}}); err != nil {
		t.Errorf("NewModel rejected an infinite ξET: %v", err)
	}
}
