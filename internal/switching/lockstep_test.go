package switching

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/pwl"
)

// sweepCurve is the per-kwait reference for SampleCurveWith: the checks
// in their order before the certificate replaced the QR check of a
// certified loop, the same certificates, and the certified walk before
// walkOne (settleCertified) for the pure-mode walks and then once per
// kwait in kwait order, each from its own copy of the switch state,
// stopping at the first failing kwait with its error.
func sweepCurve(s *System, horizon int) (*Curve, error) {
	if err := s.validateLoops(); err != nil {
		return nil, err
	}
	if err := s.validateStable(s.A1); err != nil {
		return nil, err
	}
	if err := s.validateStable(s.A2); err != nil {
		return nil, err
	}
	n := len(s.X0)
	cert1 := s.certified(nil, s.A1, horizon)
	cert2 := s.certified(nil, s.A2, horizon)
	sc := newScratch(n)
	kET, ok, err := s.settleCertified(nil, s.A1, s.X0, horizon, sc, cert1)
	if err != nil {
		return nil, s.walkError("ET loop", err)
	}
	if !ok {
		return nil, s.errorf("ET loop did not settle within %d steps", horizon)
	}
	kTT, ok, err := s.settleCertified(nil, s.A2, s.X0, horizon, sc, cert2)
	if err != nil {
		return nil, s.walkError("TT loop", err)
	}
	if !ok {
		return nil, s.errorf("TT loop did not settle within %d steps", horizon)
	}
	x := append([]float64(nil), s.X0...)
	samples := make([]pwl.Point, 0, kET+1)
	for kwait := 0; kwait < kET; kwait++ {
		if kwait > 0 {
			next := make([]float64, n)
			s.A1.MulVecTo(next, x)
			countSteps(nil, 1)
			x = next
		}
		k, ok, err := s.settleCertified(nil, s.A2, x, horizon, newScratch(n), cert2)
		if err != nil {
			return nil, s.walkError(fmt.Sprintf("TT loop from kwait=%d", kwait), err)
		}
		if !ok {
			return nil, s.errorf("TT loop did not settle from kwait=%d within %d steps", kwait, horizon)
		}
		samples = append(samples, pwl.Point{Wait: float64(kwait) * s.H, Dwell: float64(k) * s.H})
	}
	samples = append(samples, pwl.Point{Wait: float64(kET) * s.H})
	return &Curve{Samples: samples, XiTT: float64(kTT) * s.H, XiET: float64(kET) * s.H, H: s.H}, nil
}

// sameCurve reports whether two curves agree bit for bit.
func sameCurve(a, b *Curve) bool {
	bits := math.Float64bits
	if bits(a.XiTT) != bits(b.XiTT) || bits(a.XiET) != bits(b.XiET) || bits(a.H) != bits(b.H) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i, p := range a.Samples {
		if bits(p.Wait) != bits(b.Samples[i].Wait) || bits(p.Dwell) != bits(b.Samples[i].Dwell) {
			return false
		}
	}
	return true
}

// checkAgainstSweep samples s's curve at one and at three workers and
// compares both with sweepCurve: the same bytes or the same error text,
// and, at one worker, exactly the sweep's simulated steps. Without an
// error it also checks about eight kwaits against the exhaustive
// DwellSteps walk, and returns the number of samples.
func checkAgainstSweep(t *testing.T, what string, s *System, horizon int) int {
	t.Helper()
	before := SimSteps()
	want, wantErr := sweepCurve(s, horizon)
	wantSteps := SimSteps() - before
	for _, workers := range []int{1, 3} {
		before := SimSteps()
		got, err := s.SampleCurveWith(SampleCurveOptions{Workers: workers, Horizon: horizon})
		steps := SimSteps() - before
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s, %d workers: error %v, sweep %v", what, workers, err, wantErr)
		}
		if err == nil && !sameCurve(got, want) {
			t.Fatalf("%s, %d workers: curve %+v, sweep %+v", what, workers, got, want)
		}
		if workers == 1 && err == nil && steps != wantSteps {
			t.Fatalf("%s: %d simulated steps, sweep %d", what, steps, wantSteps)
		}
	}
	if wantErr != nil {
		return 0
	}
	kET := len(want.Samples) - 1
	for kwait := 0; kwait < kET; kwait += 1 + kET/8 {
		if k, ok := s.DwellSteps(kwait, horizon); !ok || float64(k)*s.H != want.Samples[kwait].Dwell {
			t.Fatalf("%s: kwait %d: curve dwell %g s, DwellSteps (%d, %v)", what, kwait, want.Samples[kwait].Dwell, k, ok)
		}
	}
	return len(want.Samples)
}

// slowStart draws an x0 and a threshold that keep a loop of spectral
// radius about 0.97 above Eth for dozens of steps, so the curve spans
// several lockstep chunks.
func slowStart(r *rand.Rand, s *System) {
	n := len(s.X0)
	for i := range s.X0 {
		s.X0[i] = r.NormFloat64()
	}
	s.NormDims = r.Intn(n + 1)
	s.Eth = s.Norm(s.X0) * math.Pow(10, -3+1.5*r.Float64())
}

// The lockstep curve equals the per-kwait sweep on random certified loops
// of every order 1..8, with curves spanning several chunks.
func TestLockstepCurveMatchesPerKwaitSweep(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	r := rand.New(rand.NewSource(26))
	chunky := 0
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < trials; trial++ {
			s := &System{Name: "random", A1: randomLoop(r, n, 0.97), A2: randomLoop(r, n, 0.2+0.75*r.Float64()),
				X0: make([]float64, n), H: 0.01}
			slowStart(r, s)
			if s.Eth == 0 {
				continue
			}
			if samples := checkAgainstSweep(t, fmt.Sprintf("n=%d trial %d", n, trial), s, 2000); samples > 3*laneChunk {
				chunky++
			}
		}
	}
	if chunky < 8 {
		t.Fatalf("only %d curves spanned three chunks", chunky)
	}
}

// Loops without a certificate walk every lane to the horizon. A slow,
// unobserved state (the last one, outside NormDims) keeps the power
// search from contracting within the horizon, while the observed block
// settles early.
func TestLockstepUncertifiedLoopsMatchSweep(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	const horizon = 600
	for n := 2; n <= 8; n++ {
		a2 := mat.New(n, n)
		a2.SetSubmatrix(0, 0, randomLoop(r, n-1, 0.5+0.3*r.Float64()))
		a2.Set(n-1, n-1, 0.999)
		s := &System{Name: "uncertified", A1: randomLoop(r, n, 0.97), A2: a2, X0: make([]float64, n), H: 0.01}
		slowStart(r, s)
		s.NormDims = n - 1
		s.Eth = s.Norm(s.X0) * 1e-2
		if s.certified(nil, s.A2, horizon).box != nil {
			t.Fatalf("n=%d: A2 certified", n)
		}
		checkAgainstSweep(t, fmt.Sprintf("uncertified n=%d", n), s, horizon)
	}
	// A lane still above Eth at the horizon fails the curve with the
	// lowest such kwait, in the sweep's words.
	s := &System{Name: "unsettled", A1: mat.FromRows([][]float64{{0.9, 0.5}, {0, 0.9}}), A2: mat.Diag(0.999, 0.5),
		X0: []float64{0, 1}, Eth: 0.01, H: 0.01}
	checkAgainstSweep(t, "unsettled", s, 300)
}

// A lane whose state overflows to NaN fails the curve with the lowest
// overflowing kwait's error, as the sweep does. The order-2 A2 lifts the
// second component by 10³⁰⁸ into the first and flips the first's sign,
// so a switch state with a second component above 4 reaches Inf − Inf in
// two steps. The order-3 A2 adds the second and subtracts the third
// component, 10³⁰⁸ times each: equal components above 1.8 give Inf − Inf
// at once, smaller ones cancel.
func TestLockstepOverflowingLaneMatchesSweep(t *testing.T) {
	a2 := mat.FromRows([][]float64{{-0.5, 1e308}, {0, 0.5}})
	for _, c := range []struct {
		what   string
		a1, a2 *mat.Matrix
	}{
		{"from kwait 1", mat.FromRows([][]float64{{0.9, 0}, {9, 0.5}}), a2},
		{"from a later chunk", mat.FromRows([][]float64{{0.995, 0, 0}, {0.12, 0.98, 0}, {0.12, 0, 0.98}}),
			mat.FromRows([][]float64{{0.5, 1e308, -1e308}, {0, 0.5, 0}, {0, 0, 0.5}})},
		{"never", mat.FromRows([][]float64{{0.97, 0}, {1e-300, 0.96}}), a2},
	} {
		x0 := make([]float64, c.a1.Rows())
		x0[0] = 1
		s := &System{Name: "overflow", A1: c.a1, A2: c.a2, X0: x0, Eth: 1e-3, NormDims: 1, H: 0.01}
		if _, err := sweepCurve(s, 20000); (err == nil) != (c.what == "never") {
			t.Fatalf("overflow %s: sweep error %v", c.what, err)
		}
		checkAgainstSweep(t, "overflow "+c.what, s, 20000)
	}
	// Within one chunk the lowest failing lane wins, even when a higher
	// one fails first: lane 0 is still above Eth at the horizon (step
	// 30), lane 1 overflows at step 2.
	s := &System{Name: "lanes", A1: mat.Diag(0.5, 0.5), A2: a2, X0: []float64{1, 0}, Eth: 1e-3, NormDims: 1, H: 0.01}
	cur := []float64{1e10, 0, 0, 8, 0.5, 0}
	nxt := make([]float64, len(cur))
	idx := []int{0, 1, 2}
	kdw := make([]int, 3)
	var none certificate
	fail, overflow, err := s.walkLanes(nil, a2, cur, nxt, make([]float64, 2), make([]float64, 3), idx, kdw, 30, sumSqThreshold(s.Eth), &none)
	if err != nil || fail != 0 || overflow {
		t.Fatalf("walkLanes = (%d, %v, %v), want lane 0 unsettled", fail, overflow, err)
	}
	if k, ok, _ := s.settle(a2, []float64{0.5, 0}, 30, newScratch(2)); !ok || kdw[2] != k {
		t.Fatalf("lane 2 settled at %d, settle (%d, %v)", kdw[2], k, ok)
	}
}

// errAfter is a context whose Err turns to Canceled after a fixed number
// of calls, so a test can cancel a walk at a deterministic point.
type errAfter struct {
	context.Context
	calls int
}

func (c *errAfter) Err() error {
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// A cancelled context stops a lockstep walk at its next check: before the
// first step, or after stepFlush lane-steps, every one of them counted.
func TestLockstepCancelledWalk(t *testing.T) {
	s := &System{Name: "slow", A1: mat.Diag(0.97, 0.9), A2: mat.Diag(0.9999, 0.5), X0: []float64{1, 1}, Eth: 1e-3, NormDims: 2, H: 0.01}
	var none certificate
	for _, calls := range []int{0, 1, 2} {
		cur := make([]float64, 2*laneChunk)
		for i := range cur {
			cur[i] = 1
		}
		idx := make([]int, laneChunk)
		for l := range idx {
			idx[l] = l
		}
		ctx := &errAfter{Context: context.Background(), calls: calls}
		before := SimSteps()
		_, _, err := s.walkLanes(ctx, s.A2, cur, make([]float64, len(cur)), make([]float64, 2), make([]float64, laneChunk), idx, make([]int, laneChunk), 20000, sumSqThreshold(s.Eth), &none)
		steps := SimSteps() - before
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d checks: err = %v, want context.Canceled", calls, err)
		}
		if want := uint64(calls * stepFlush); steps != want {
			t.Fatalf("%d checks: %d lane-steps counted, want %d", calls, steps, want)
		}
	}
}

// t = sumSqThreshold(Eth) is the largest float64 whose square root is at
// most Eth, for normal and subnormal thresholds, thresholds whose square
// overflows and exact squares.
func TestSumSqThresholdIsLargestRootAtMostEth(t *testing.T) {
	eths := []float64{
		0.1, 1, 2, 3, 0.5, 1e-3, 7, 12.25, 1.5, // exact squares and their roots among them
		math.SmallestNonzeroFloat64, 1e-320, 3e-310, 1e-200, 1e-160, 2.2250738585072014e-308,
		1.34e154, 1.3407807929942596e154, 1.35e154, 1e200, math.MaxFloat64,
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 20000; i++ {
		eths = append(eths, math.Float64frombits(r.Uint64()>>1)) // any positive finite or not
	}
	for _, eth := range eths {
		if !(eth > 0) || math.IsInf(eth, 1) {
			continue
		}
		th := sumSqThreshold(eth)
		next := math.Nextafter(th, math.Inf(1))
		if !(math.Sqrt(th) <= eth) || !(math.Sqrt(next) > eth) {
			t.Fatalf("Eth = %v: t = %v, √t = %v, √next(t) = %v", eth, th, math.Sqrt(th), math.Sqrt(next))
		}
	}
}

// The square-root-free test agrees with Norm's: √ss > Eth exactly when
// ss > t, on random sums, on sums one ULP either side of t, on t itself,
// and for NaN and +Inf (NaN is neither above nor at most; +Inf is above).
func TestSumSqThresholdMatchesSqrtTest(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		eth := math.Exp(r.NormFloat64() * 40)
		if i%10 == 0 {
			eth = math.Float64frombits(r.Uint64() >> 1)
		}
		if !(eth > 0) || math.IsInf(eth, 1) {
			continue
		}
		th := sumSqThreshold(eth)
		sums := []float64{th, math.Nextafter(th, 0), math.Nextafter(th, math.Inf(1)), math.NaN(), math.Inf(1), 0}
		for j := 0; j < 20; j++ {
			sums = append(sums, th*math.Exp(r.NormFloat64()*1e-3), th*math.Exp(r.NormFloat64()*1e-15))
		}
		for _, ss := range sums {
			if above, want := ss > th, math.Sqrt(ss) > eth; above != want {
				t.Fatalf("Eth = %v, t = %v, ss = %v: ss > t is %v, √ss > Eth is %v", eth, th, ss, above, want)
			}
			if atMost, want := ss <= th, math.Sqrt(ss) <= eth; atMost != want {
				t.Fatalf("Eth = %v, t = %v, ss = %v: ss ≤ t is %v, √ss ≤ Eth is %v", eth, th, ss, atMost, want)
			}
		}
	}
}

// sumSq sums in VecNorm2's order: its square root is VecNorm2 bit for bit,
// on vectors whose entries span many magnitudes, so that any other order
// would round differently.
func TestSumSqMatchesVecNorm2(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for i := 0; i < 20000; i++ {
		x := make([]float64, 1+r.Intn(8))
		for j := range x {
			x[j] = r.NormFloat64() * math.Pow(10, -3+6*r.Float64())
		}
		if got, want := math.Sqrt(sumSq(x)), mat.VecNorm2(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x = %v: √sumSq = %v, VecNorm2 = %v", x, got, want)
		}
	}
}
