package switching

import (
	"context"
	"errors"
	"math"
	"testing"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/pwl"
)

// nonNormalSystem returns a system whose ET loop has a strong transient
// hump (non-normal A1), producing the paper's non-monotonic dwell curve.
func nonNormalSystem() *System {
	return &System{
		Name: "non-normal",
		A1:   mat.FromRows([][]float64{{0.92, 1.8}, {0, 0.7}}),
		A2:   mat.FromRows([][]float64{{0.45, 0}, {0, 0.35}}),
		X0:   []float64{1, 0.8},
		Eth:  0.1,
		H:    0.02,
	}
}

// diagonalSystem settles monotonically (normal matrices, no transient).
func diagonalSystem() *System {
	return &System{
		Name: "diagonal",
		A1:   mat.Diag(0.9, 0.85),
		A2:   mat.Diag(0.5, 0.45),
		X0:   []float64{1, 1},
		Eth:  0.1,
		H:    0.02,
	}
}

// SampleCurveWith checks shapes, that every input is finite, the
// threshold and the asymptotic stability of both loops before it walks.
func TestValidate(t *testing.T) {
	validate := func(s *System) error {
		_, err := s.SampleCurveWith(SampleCurveOptions{Workers: 1})
		return err
	}
	if err := validate(nonNormalSystem()); err != nil {
		t.Fatal(err)
	}
	bad := nonNormalSystem()
	bad.A1 = mat.Diag(1.1, 0.5)
	if err := validate(bad); err == nil {
		t.Fatal("want error for unstable A1")
	}
	bad2 := nonNormalSystem()
	bad2.Eth = 0
	if err := validate(bad2); err == nil {
		t.Fatal("want error for zero threshold")
	}
	bad3 := nonNormalSystem()
	bad3.X0 = []float64{1}
	if err := validate(bad3); err == nil {
		t.Fatal("want error for x0 length mismatch")
	}
	bad4 := nonNormalSystem()
	bad4.H = 0
	if err := validate(bad4); err == nil {
		t.Fatal("want error for zero sampling period")
	}
	bad5 := nonNormalSystem()
	bad5.A2 = mat.New(3, 3)
	if err := validate(bad5); err == nil {
		t.Fatal("want error for A2 size mismatch")
	}
	// NaN fails every ordered comparison, and an infinite threshold,
	// period, state or loop entry describes no loop.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*System){
			"Eth": func(s *System) { s.Eth = v },
			"H":   func(s *System) { s.H = v },
			"X0":  func(s *System) { s.X0 = []float64{v, 1} },
			"A1":  func(s *System) { s.A1 = mat.FromRows([][]float64{{0.5, v}, {0, 0.5}}) },
			"A2":  func(s *System) { s.A2 = mat.FromRows([][]float64{{0.5, 0}, {v, 0.5}}) },
		} {
			bad := nonNormalSystem()
			set(bad)
			if err := validate(bad); err == nil {
				t.Fatalf("%s = %g: want an error", name, v)
			}
		}
	}
}

// The pure-TT settle step count itself (ProbeSteps of A2 from X0), on
// systems small enough to count by hand.
func TestResponseStepsTTSettleCounts(t *testing.T) {
	for _, c := range []struct {
		name     string
		a2       *mat.Matrix
		x0       []float64
		normDims int
		horizon  int
		steps    int
		settled  bool
	}{
		// Norms 1, .5, .25, .125, .0625 against Eth 0.1: the first step
		// with everything after it below the threshold is k = 4.
		{"scalar", mat.FromRows([][]float64{{0.5}}), []float64{1}, 0, 100, 4, true},
		{"immediate", mat.FromRows([][]float64{{0.5}}), []float64{0.05}, 0, 10, 0, true},
		// Norms 0.99^k stay above 0.6 up to the horizon: the loop is
		// stable, but it has not settled by then (and has no certificate
		// within 50 steps).
		{"never-settles", mat.FromRows([][]float64{{0.99}}), []float64{1}, 0, 50, 50, false},
		// The second component stays above Eth up to k = 38 but is
		// outside the norm.
		{"partial-norm", mat.Diag(0.5, 0.9), []float64{1, 5}, 1, 100, 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &System{Name: c.name, A1: c.a2, A2: c.a2, X0: c.x0, Eth: 0.1, NormDims: c.normDims, H: 0.02}
			steps, settled, err := s.ProbeSteps(context.Background(), "TT loop", s.A2, c.horizon, new(Workspace))
			if err != nil || steps != c.steps || settled != c.settled {
				t.Fatalf("ProbeSteps = %d, %v, %v; want %d, %v", steps, settled, err, c.steps, c.settled)
			}
		})
	}
}

func TestDwellAtZeroEqualsTTResponse(t *testing.T) {
	s := nonNormalSystem()
	kTT, ok1, err := s.ProbeSteps(context.Background(), "TT loop", s.A2, 10000, new(Workspace))
	kdw0, ok2 := s.DwellSteps(0, 10000)
	if err != nil || !ok1 || !ok2 {
		t.Fatalf("settling failed: %v", err)
	}
	if kTT != kdw0 {
		t.Fatalf("DwellSteps(0) = %d, ProbeSteps of A2 = %d", kdw0, kTT)
	}
}

func TestSampleCurveEndpoints(t *testing.T) {
	s := nonNormalSystem()
	c, err := s.SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) < 3 {
		t.Fatalf("curve has only %d samples", len(c.Samples))
	}
	if c.Samples[0].Wait != 0 {
		t.Fatalf("first sample wait = %g", c.Samples[0].Wait)
	}
	if math.Abs(c.Samples[0].Dwell-c.XiTT) > 1e-12 {
		t.Fatalf("dwell at 0 = %g, ξTT = %g", c.Samples[0].Dwell, c.XiTT)
	}
	last := c.Samples[len(c.Samples)-1]
	if math.Abs(last.Wait-c.XiET) > 1e-12 || last.Dwell != 0 {
		t.Fatalf("last sample = %+v, want (ξET=%g, 0)", last, c.XiET)
	}
	if c.XiTT >= c.XiET {
		t.Fatalf("ξTT = %g should beat ξET = %g", c.XiTT, c.XiET)
	}
}

func TestNonMonotonicityDetected(t *testing.T) {
	c, err := nonNormalSystem().SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsNonMonotonic() {
		t.Fatal("non-normal system should produce a non-monotonic dwell curve")
	}
	peak := c.PeakSample()
	if peak.Wait <= 0 {
		t.Fatalf("peak at wait %g, want interior peak", peak.Wait)
	}
	if peak.Dwell <= c.XiTT {
		t.Fatalf("peak dwell %g not above ξTT %g", peak.Dwell, c.XiTT)
	}
}

func TestDiagonalSystemIsMonotonic(t *testing.T) {
	c, err := diagonalSystem().SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.IsNonMonotonic() {
		t.Fatal("diagonal system should settle monotonically")
	}
}

func TestFitModelsDominance(t *testing.T) {
	c, err := nonNormalSystem().SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nm, cons, simple, err := c.FitModels()
	if err != nil {
		t.Fatal(err)
	}
	if !nm.Dominates(c.Samples, 1e-9) {
		t.Fatal("non-monotonic model must dominate the sampled curve")
	}
	if !cons.Dominates(c.Samples, 1e-9) {
		t.Fatal("conservative model must dominate the sampled curve")
	}
	// The simple monotonic model is unsafe on a non-monotonic curve.
	if simple.Dominates(c.Samples, 1e-9) {
		t.Fatal("simple model unexpectedly dominates a non-monotonic curve")
	}
	// Conservative is coarser than the non-monotonic fit: larger peak.
	if cons.MaxDwell() < nm.MaxDwell()-1e-9 {
		t.Fatalf("ξ′M = %g below ξM = %g", cons.MaxDwell(), nm.MaxDwell())
	}
}

func TestNormDimsRestrictsThresholdNorm(t *testing.T) {
	s := nonNormalSystem()
	s.NormDims = 1
	if got := s.Norm([]float64{3, 4}); got != 3 {
		t.Fatalf("Norm = %g, want 3 (first component only)", got)
	}
	s.NormDims = 0
	if got := s.Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %g, want 5 (full state)", got)
	}
}

func TestSampleCurveUnstableErrors(t *testing.T) {
	s := nonNormalSystem()
	s.A1 = mat.Diag(1.0, 0.5) // marginally stable: never settles
	if _, err := s.SampleCurveWith(SampleCurveOptions{Workers: 1}); err == nil {
		t.Fatal("want error for non-settling system")
	}
}

func TestDwellMonotoneWithThreshold(t *testing.T) {
	// Raising Eth can only shorten (or keep) settling times.
	s := nonNormalSystem()
	c1, err := s.SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2 := nonNormalSystem()
	s2.Eth = 0.3
	c2, err := s2.SampleCurveWith(SampleCurveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c2.XiET > c1.XiET || c2.XiTT > c1.XiTT {
		t.Fatalf("looser threshold must not slow settling: (%g,%g) vs (%g,%g)",
			c2.XiTT, c2.XiET, c1.XiTT, c1.XiET)
	}
}

// The sharded sampler must be byte-identical to the sequential path: every
// kwait's simulation performs the same float arithmetic regardless of which
// worker runs it, so even the bit patterns agree.
func TestSampleCurveWithWorkersIsByteIdentical(t *testing.T) {
	for _, sys := range []*System{nonNormalSystem(), diagonalSystem()} {
		seq, err := sys.SampleCurveWith(SampleCurveOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4, 16} {
			got, err := sys.SampleCurveWith(SampleCurveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sys.Name, workers, err)
			}
			if got.XiTT != seq.XiTT || got.XiET != seq.XiET || got.H != seq.H {
				t.Fatalf("%s workers=%d: header (%g,%g,%g) != sequential (%g,%g,%g)",
					sys.Name, workers, got.XiTT, got.XiET, got.H, seq.XiTT, seq.XiET, seq.H)
			}
			if len(got.Samples) != len(seq.Samples) {
				t.Fatalf("%s workers=%d: %d samples, want %d", sys.Name, workers, len(got.Samples), len(seq.Samples))
			}
			for i := range seq.Samples {
				if got.Samples[i] != seq.Samples[i] {
					t.Fatalf("%s workers=%d: sample %d = %+v, sequential %+v",
						sys.Name, workers, i, got.Samples[i], seq.Samples[i])
				}
			}
		}
	}
}

// Regression: a user-constructed system that starts below its threshold
// (kET = 0 — core's Application.Validate forbids this, switching's does
// not) must yield the single kwait = 0 endpoint like the sequential
// sampler always did, not panic in the prepass.
func TestSampleCurveAlreadySettled(t *testing.T) {
	s := nonNormalSystem()
	s.X0 = []float64{0.01, 0.01} // ‖x0‖ < Eth = 0.1
	for _, workers := range []int{1, 4} {
		c, err := s.SampleCurveWith(SampleCurveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(c.Samples) != 1 || c.Samples[0] != (pwl.Point{}) {
			t.Fatalf("workers=%d: samples = %+v, want the single zero endpoint", workers, c.Samples)
		}
		if c.XiET != 0 || c.XiTT != 0 {
			t.Fatalf("workers=%d: ξTT=%g ξET=%g, want 0", workers, c.XiTT, c.XiET)
		}
	}
}

// A cancelled context aborts the sampling with ctx.Err() instead of
// finishing the exhaustive simulation.
func TestSampleCurveWithCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := nonNormalSystem().SampleCurveWith(SampleCurveOptions{Workers: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Settling simulations must not allocate per step: the scratch buffers are
// the only allocations, so the count is a small constant independent of
// kwait and the horizon.
func TestDwellStepsAllocationIsHorizonIndependent(t *testing.T) {
	s := nonNormalSystem()
	measure := func(kwait, horizon int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, ok := s.DwellSteps(kwait, horizon); !ok {
				t.Fatal("did not settle")
			}
		})
	}
	small := measure(1, 500)
	big := measure(120, 20000)
	if small > 4 || big > 4 {
		t.Fatalf("DwellSteps allocates %g (small) / %g (big) times, want ≤ 4 (scratch only)", small, big)
	}
	if big > small {
		t.Fatalf("allocations grow with the walk: %g → %g", small, big)
	}
	ctx := context.Background()
	et := testing.AllocsPerRun(20, func() {
		var ws Workspace
		if _, _, err := s.ProbeSteps(ctx, "ET loop", s.A1, 20000, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if et > 4 {
		t.Fatalf("ProbeSteps of A1 in a fresh workspace allocates %g times, want ≤ 4", et)
	}
}

// The sampling scratch rides one flat backing array (the same idiom as the
// prepass states buffer), so widening the worker pool must not add scratch
// allocations — the only per-worker cost left is the conc layer's
// goroutine-plus-closure pair. The old per-shard newScratch cost three
// further allocations per worker; this pins the regression.
func TestSampleCurveScratchAllocationIsWorkerIndependent(t *testing.T) {
	s := nonNormalSystem()
	measure := func(workers int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := s.SampleCurveWith(SampleCurveOptions{Workers: workers, Horizon: 20000}); err != nil {
				t.Fatal(err)
			}
		})
	}
	w1 := measure(1)
	w8 := measure(8)
	if perWorker := (w8 - w1) / 7; perWorker > 2.5 {
		t.Fatalf("allocations grow by %.2f per extra worker (%g → %g), want ≤ 2 (goroutine machinery only)",
			perWorker, w1, w8)
	}
}

// The process-wide step counter advances with simulation work — the
// observable the service cancellation tests rely on.
func TestSimStepsCounterAdvances(t *testing.T) {
	before := SimSteps()
	if _, err := nonNormalSystem().SampleCurveWith(SampleCurveOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if after := SimSteps(); after <= before {
		t.Fatalf("SimSteps did not advance: %d → %d", before, after)
	}
}

// Regression: PeakSample on an empty user-constructed curve used to panic
// indexing Samples[0]; it must return the zero point instead.
func TestPeakSampleEmptyCurve(t *testing.T) {
	c := &Curve{H: 0.02}
	if got := c.PeakSample(); got != (pwl.Point{}) {
		t.Fatalf("PeakSample on empty curve = %+v, want zero point", got)
	}
	one := &Curve{Samples: []pwl.Point{{Wait: 0.1, Dwell: 0.5}}, H: 0.02}
	if got := one.PeakSample(); got != one.Samples[0] {
		t.Fatalf("PeakSample on 1-sample curve = %+v, want %+v", got, one.Samples[0])
	}
}
