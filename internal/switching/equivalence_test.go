package switching

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
)

// oddFloats are the entries a stop test must treat as its reference does:
// signed zeros, subnormals, infinities, NaN and the largest finite values.
var oddFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1060, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
}

// randomCertifiedLoop draws randomLoop systems until one has a certificate
// with step 5 armed (step 6 too when later), and returns it with its loop
// and certificate.
func randomCertifiedLoop(r *rand.Rand, n int, later bool) (*System, *mat.Matrix, certificate) {
	for {
		rho := 0.05 + 0.94*r.Float64()
		a := randomLoop(r, n, rho)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.NormFloat64()
		}
		s := &System{Name: "random", A1: a, A2: a, X0: x0, NormDims: r.Intn(n + 1), H: 0.01}
		s.Eth = s.Norm(x0) * math.Pow(10, -3+3*r.Float64())
		if s.Eth == 0 {
			continue
		}
		c := s.certified(nil, a, min(20000, 50+int(30/(1-rho))))
		if c.box2 != nil && (!later || c.q != nil) {
			return s, a, c
		}
	}
}

// The sum-first stop test returns the reference's boolean on random
// states of random certified loops of every order 1..8: states scaled
// around each region's edge, so that every test decides some of them, and
// states with signed zeros, subnormals, infinities and NaN in random
// entries.
func TestPropHoldsMatchesReference(t *testing.T) {
	loops := 1000
	if testing.Short() {
		loops = 100
	}
	r := rand.New(rand.NewSource(41))
	outcomes := map[bool]int{}
	for trial := 0; trial < loops; trial++ {
		n := 1 + trial%8
		s, _, c := randomCertifiedLoop(r, n, trial%2 == 0)
		x, ax := make([]float64, n), make([]float64, n)
		for k := 0; k < 200; k++ {
			// A random direction, scaled so that its largest ratio to box
			// (a) is spread over [2⁻⁴, 2⁹]: inside step 4's box, box (a),
			// box (a') and beyond.
			scale := math.Ldexp(1, -4+r.Intn(14)) * (0.5 + r.Float64())
			for i := range x {
				x[i] = c.box2[i] * scale * (2*r.Float64() - 1)
				if r.Intn(4) == 0 {
					x[i] *= 1e-3
				}
			}
			for i := range x {
				if r.Intn(16) == 0 {
					x[i] = oddFloats[r.Intn(len(oddFloats))]
				}
			}
			got, want := c.holds(x, ax), holdsReference(&c, x)
			if got != want {
				t.Fatalf("trial %d (n=%d, d=%d): holds(%v) = %v, reference %v", trial, n, s.normDims(), x, got, want)
			}
			outcomes[want]++
		}
	}
	if outcomes[true] < loops || outcomes[false] < loops {
		t.Fatalf("states held %d times, refused %d: the draw misses one side", outcomes[true], outcomes[false])
	}
}

// A certificate's L never exceeds 1, so a sum above 1 is refused by every
// branch of the stop test (holds relies on it).
func TestPropLaterBoundAtMostOne(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		_, _, c := randomCertifiedLoop(r, 1+trial%8, true)
		if !(c.lim <= 1) {
			t.Fatalf("trial %d: L = %v", trial, c.lim)
		}
	}
}

// The one-lane walk every pure-mode walk runs (walkOne, on walkLanes and
// its square-root-free threshold) returns the certified settle's (k, ok,
// err) and counts its steps, on random loops: certified and uncertified,
// starting above and below the threshold, overflowing, and cut by the
// horizon.
func TestPropWalkOneMatchesCertifiedSettle(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 150
	}
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(8)
		rho := 0.05 + 0.94*r.Float64()
		if r.Intn(5) == 0 {
			rho = 1 - math.Pow(10, -4+2*r.Float64())
		}
		a := randomLoop(r, n, rho)
		switch trial % 10 {
		case 1: // unstable, to overflow
			f := 1e30 / rho
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, f*a.At(i, j))
				}
			}
		case 2: // marginal: no certificate, a walk to the horizon
			a = mat.Identity(n)
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.NormFloat64() * math.Pow(10, -2+4*r.Float64())
		}
		s := &System{Name: "random", A1: a, A2: a, X0: x0, NormDims: r.Intn(n + 1), H: 0.01}
		s.Eth = s.Norm(x0) * math.Pow(10, -3+3.5*r.Float64())
		if s.Eth == 0 {
			s.Eth = 1e-3
		}
		horizon := min(20000, 50+int(30/(1-rho)))
		if trial%7 == 0 {
			horizon = r.Intn(40)
		}
		c := s.certified(nil, a, horizon)
		before := SimSteps()
		wantK, wantOK, wantErr := s.settleCertified(nil, a, x0, horizon, newScratch(n), c)
		wantSteps := SimSteps() - before
		before = SimSteps()
		gotK, gotOK, gotErr := s.walkCertified(nil, a, horizon, c)
		gotSteps := SimSteps() - before
		if gotK != wantK || gotOK != wantOK || !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (n=%d, ρ=%.6f, horizon %d, certified %v): walkOne (%d, %v, %v), settle (%d, %v, %v)",
				trial, n, rho, horizon, c.box != nil, gotK, gotOK, gotErr, wantK, wantOK, wantErr)
		}
		if gotSteps != wantSteps {
			t.Fatalf("trial %d: walkOne counted %d steps, settle %d", trial, gotSteps, wantSteps)
		}
	}
}

// A cancelled walk stops at the same check with the same count: before
// the first step, or after each stepFlush steps.
func TestWalkOneCancelsLikeSettle(t *testing.T) {
	s := &System{Name: "slow", A1: mat.Diag(0.97, 0.9), A2: mat.Diag(0.9999, 0.5), X0: []float64{1, 1}, Eth: 1e-3, NormDims: 2, H: 0.01}
	var none certificate
	for _, calls := range []int{0, 1, 2} {
		before := SimSteps()
		_, _, want := s.settleCertified(&errAfter{Context: context.Background(), calls: calls}, s.A2, s.X0, 20000, newScratch(2), none)
		wantSteps := SimSteps() - before
		before = SimSteps()
		_, _, got := s.walkCertified(&errAfter{Context: context.Background(), calls: calls}, s.A2, 20000, none)
		if gotSteps := SimSteps() - before; !errors.Is(got, context.Canceled) || !errors.Is(want, context.Canceled) || gotSteps != wantSteps {
			t.Fatalf("%d checks: walkOne %v after %d steps, settle %v after %d", calls, got, gotSteps, want, wantSteps)
		}
	}
}

// badLoops are loops without a certificate that the stability check
// refuses, each with a stable partner. refused-et's stable ET loop has no
// certificate either: at ρ = 1 − 10⁻⁶ it needs ~1.4 M powers to contract
// 4×, far past a curve's horizon.
var badLoops = []struct {
	name   string
	a1, a2 *mat.Matrix
}{
	{"unstable-et", mat.Diag(1.1, 0.5), mat.Diag(0.5, 0.4)},
	{"unstable-tt", mat.Diag(0.9, 0.5), mat.FromRows([][]float64{{0.5, 1}, {0, 1.01}})},
	{"marginal-et", mat.Diag(1, 0.5), mat.Diag(0.5, 0.4)},
	{"marginal-tt", mat.Diag(0.9, 0.5), mat.FromRows([][]float64{{1, 1}, {0, 1}})},
	{"rotation-tt", mat.Diag(0.9, 0.5), mat.FromRows([][]float64{{0, 1}, {-1, 0}})},
	{"both", mat.Diag(1.5, 0.5), mat.Diag(2, 0.5)},
	{"refused-et", mat.Diag(1-1e-6, 0.5), mat.FromRows([][]float64{{0.5, 1}, {0, 1.01}})},
}

// Unstable and marginal loops keep the errors the QR check gave before
// the certificate came first (recorded from that build), named and
// unnamed, in the curve and in the probe walk, and count no refusal:
// nothing walks, not even refused-et's stable but uncertified ET loop.
func TestBadLoopsKeepErrorTexts(t *testing.T) {
	for _, c := range badLoops {
		for _, name := range []string{c.name, ""} {
			s := &System{Name: name, A1: c.a1, A2: c.a2, X0: []float64{1, 0.8}, Eth: 0.1, H: 0.02}
			want := "switching: " + name + ": closed loop is not Schur stable"
			if name == "" {
				want = "switching: closed loop is not Schur stable"
			}
			before := CertRefusals()
			if _, err := s.SampleCurveWith(SampleCurveOptions{Workers: 1}); err == nil || err.Error() != want {
				t.Fatalf("%s: curve error %v, want %q", c.name, err, want)
			}
			bad := c.a2
			if c.name == "unstable-et" || c.name == "marginal-et" {
				bad = c.a1
			}
			if _, _, err := s.ProbeSteps(context.Background(), "TT loop", bad, 60000, new(Workspace)); err == nil || err.Error() != want {
				t.Fatalf("%s: probe error %v, want %q", c.name, err, want)
			}
			if got := CertRefusals() - before; got != 0 {
				t.Fatalf("%s: %d refusals counted for loops that never walked", c.name, got)
			}
		}
	}
}

// ProbeSteps checks its loop as Validate checks a system's, with the
// texts the probe's check had before it: the shape, finiteness and the
// inputs both loops share.
func TestProbeStepsChecksItsLoop(t *testing.T) {
	s := &System{Name: "probe", X0: []float64{1, 0.8}, Eth: 0.1, H: 0.02}
	for _, c := range []struct {
		a    *mat.Matrix
		eth  float64
		want string
	}{
		{mat.New(2, 3), 0.1, "switching: probe: loop matrix (2×3) must be square"},
		{mat.FromRows([][]float64{{0.5, math.NaN()}, {0, 0.5}}), 0.1, "switching: probe: the loop matrix and x0 must be finite"},
		{mat.Diag(0.5, 0.4, 0.3), 0.1, "switching: probe: x0 has 2 entries, want 3"},
		{mat.Diag(0.5, 0.4), 0, "switching: probe: threshold Eth = 0 must be positive"},
	} {
		s.Eth = c.eth
		if _, _, err := s.ProbeSteps(context.Background(), "TT loop", c.a, 100, new(Workspace)); err == nil || err.Error() != c.want {
			t.Fatalf("error %v, want %q", err, c.want)
		}
	}
}

// A probe walk reuses its workspace across loops of different orders and
// gives what a fresh one gives, allocating nothing once it has grown.
func TestProbeStepsReusesItsWorkspace(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		s, a, _ := randomCertifiedLoop(r, 1+r.Intn(8), false)
		k, ok, err := s.ProbeSteps(nil, "TT loop", a, 20000, &ws)
		wk, wok, werr := s.ProbeSteps(nil, "TT loop", a, 20000, new(Workspace))
		if k != wk || ok != wok || (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: reused workspace (%d, %v, %v), fresh (%d, %v, %v)", trial, k, ok, err, wk, wok, werr)
		}
	}
	s := nonNormalSystem()
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.ProbeSteps(ctx, "TT loop", s.A2, 20000, &ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a probe walk in a grown workspace allocates %g times", allocs)
	}
}

// jordanLoop is V·(λI + s·N)·V⁻¹ for a random basis V and the nilpotent
// shift N: one Jordan block of order n, whose eigenvalue λ QR finds only
// to about (u·s)^(1/n).
func jordanLoop(r *rand.Rand, n int, lam, s float64) *mat.Matrix {
	for {
		j := mat.New(n, n)
		for i := 0; i < n; i++ {
			j.Set(i, i, lam)
			if i+1 < n {
				j.Set(i, i+1, s)
			}
		}
		v := mat.New(n, n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				v.Set(i, k, r.NormFloat64())
			}
		}
		vi, err := mat.Inverse(v)
		if err != nil {
			continue
		}
		return v.Mul(j).Mul(vi)
	}
}

// The QR check now runs only on loops the certificate refuses, so no loop
// it calls unstable may get a certificate. Random loops near and at
// spectral radius 1, both sides, Jordan blocks whose eigenvalue QR finds
// only roughly, and the rotations and Jordan blocks on the unit circle of
// badLoops: every certified one is Schur stable by QR too. (Step 3 admits
// only loops whose transients are mild, and QR resolves those.)
func TestCertifiedLoopsAreSchurStable(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 120
	}
	const horizon = 5000
	r := rand.New(rand.NewSource(45))
	certified, unstable := 0, 0
	check := func(what string, a *mat.Matrix) {
		n := a.Rows()
		if stable, err := mat.IsSchurStable(a); err != nil || !stable {
			unstable++
		}
		s := &System{Name: "edge", A1: a, A2: a, X0: make([]float64, n), Eth: 0.1, H: 0.01}
		var ws Workspace
		cert, work, _ := ws.split(n)
		if c := s.certify(nil, a, horizon, work, cert); c.box != nil {
			certified++
			if stable, err := mat.IsSchurStable(a); err != nil || !stable {
				t.Fatalf("%s: certified, but QR says stable = %v (%v)\nA =\n%v", what, stable, err, a)
			}
		}
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(8)
		// ρ = 1 − 10^−k for k in [1, 12], then kept, scaled to exactly 1
		// by QR's radius, or pushed above 1 by 10^−k.
		rho := 1 - math.Pow(10, -1-11*r.Float64())
		var a *mat.Matrix
		if trial%4 == 3 {
			a = jordanLoop(r, n, rho, math.Pow(10, -2+4*r.Float64()))
		} else {
			a = randomLoop(r, n, rho)
		}
		if sr, err := mat.SpectralRadius(a); err == nil && trial%4 != 3 {
			f := 1.0
			switch trial % 4 {
			case 1:
				f = 1 / sr
			case 2:
				f = (1 + math.Pow(10, -1-11*r.Float64())) / sr
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, f*a.At(i, j))
				}
			}
		}
		check("random", a)
	}
	for _, c := range badLoops {
		check(c.name+" A1", c.a1)
		check(c.name+" A2", c.a2)
	}
	t.Logf("%d of %d loops certified; QR calls %d unstable", certified, trials+2*len(badLoops), unstable)
	if unstable < trials/4 || certified < trials/20 {
		t.Fatalf("%d certified and %d unstable by QR of %d: the draw misses a side", certified, unstable, trials)
	}
}
