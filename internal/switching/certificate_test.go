package switching

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
)

// randomLoop draws a Schur-stable, non-normal, badly scaled order-n loop
// with spectral radius rho: A = D·V·T·V⁻¹·D⁻¹, where T is quasi upper
// triangular (real eigenvalues and rotation blocks, the largest of modulus
// rho, with a random strictly upper part that makes A non-normal), V is a
// random dense basis and D spreads the state scales over six decades.
func randomLoop(r *rand.Rand, n int, rho float64) *mat.Matrix {
	for {
		t := mat.New(n, n)
		for i := 0; i < n; {
			mod := rho
			if i > 0 {
				mod = rho * r.Float64()
			}
			if i+1 < n && r.Intn(2) == 0 {
				th := math.Pi * r.Float64()
				t.Set(i, i, mod*math.Cos(th))
				t.Set(i+1, i+1, mod*math.Cos(th))
				t.Set(i, i+1, mod*math.Sin(th))
				t.Set(i+1, i, -mod*math.Sin(th))
				i += 2
				continue
			}
			if r.Intn(2) == 0 {
				mod = -mod
			}
			t.Set(i, i, mod)
			i++
		}
		skew := math.Pow(10, -1+1.5*r.Float64())
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if t.At(i, j) == 0 {
					t.Set(i, j, skew*r.NormFloat64())
				}
			}
		}
		v := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v.Set(i, j, r.NormFloat64())
			}
		}
		vi, err := mat.Inverse(v)
		if err != nil {
			continue
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = math.Pow(10, -3+6*r.Float64())
		}
		a := v.Mul(t).Mul(vi)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)*d[i]/d[j])
			}
		}
		if sr, err := mat.SpectralRadius(a); err == nil && sr < 1 {
			return a
		}
	}
}

// The certified walk must return exactly the full walk's (k, ok) on random
// stable loops: non-normal, badly scaled, spectral radius up to 0.9999,
// with random start states, thresholds and norm dimensions.
func TestPropCertifiedWalkMatchesFullWalk(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 400
	}
	r := rand.New(rand.NewSource(15))
	certified, early := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(8)
		// One loop in ten is slow, 0.99 ≤ ρ ≤ 0.9999; the rest spread
		// over 0.05 ≤ ρ ≤ 0.99.
		rho := 0.05 + 0.94*r.Float64()
		if r.Intn(10) == 0 {
			rho = 1 - math.Pow(10, -4+2*r.Float64())
		}
		a := randomLoop(r, n, rho)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.NormFloat64() * math.Pow(10, -2+4*r.Float64())
		}
		s := &System{Name: "random", A1: a, A2: a, X0: x0, NormDims: r.Intn(n + 1), H: 0.01}
		s.Eth = s.Norm(x0) * math.Pow(10, -3+3*r.Float64())
		if s.Eth == 0 {
			s.Eth = 1e-3
		}
		horizon := min(20000, 50+int(30/(1-rho)))
		cert := s.certified(nil, a, horizon)
		full := newScratch(n)
		wantK, wantOK, _ := s.settle(a, x0, horizon, full)
		before := SimSteps()
		gotK, gotOK, _ := s.walkCertified(nil, a, horizon, cert)
		if gotK != wantK || gotOK != wantOK {
			t.Fatalf("trial %d (n=%d, ρ=%.6f, d=%d, Eth=%g, horizon %d, certified %v): certified walk (%d, %v), full walk (%d, %v)\nA =\n%v x0 = %v",
				trial, n, rho, s.NormDims, s.Eth, horizon, cert.box != nil, gotK, gotOK, wantK, wantOK, a, x0)
		}
		if cert.box != nil {
			certified++
			if SimSteps()-before < uint64(horizon) {
				early++
			}
		}
	}
	t.Logf("%d of %d random loops certified, %d walks stopped early", certified, trials, early)
	if certified < trials*9/10 {
		t.Fatalf("only %d of %d random stable loops certified", certified, trials)
	}
}

// Marginal and unstable loops have no certificate, so their walks run to
// the horizon exactly as before; each refusal counts once in
// CertRefusals, and a certified loop counts nothing.
func TestCertificateFallsBack(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *mat.Matrix
	}{
		{"identity", mat.Identity(2)},
		{"rotation", mat.FromRows([][]float64{{0, 1}, {-1, 0}})},
		{"jordan", mat.FromRows([][]float64{{1, 1}, {0, 1}})},
		{"unstable", mat.Diag(1.1, 0.5)},
		{"nan", mat.FromRows([][]float64{{math.NaN()}})},
		// ρ = 0.9999 needs more than 13 000 steps to contract 4×.
		{"short-horizon", mat.Diag(0.9999, 0.5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &System{Name: c.name, A1: c.a, A2: c.a, X0: make([]float64, c.a.Rows()), Eth: 0.1, H: 0.02}
			before := CertRefusals()
			if cert := s.certified(nil, c.a, 2000); cert.box != nil {
				t.Fatalf("certificate %v for a loop that does not contract", cert)
			}
			if got := CertRefusals() - before; got != 1 {
				t.Fatalf("CertRefusals advanced by %d, want 1", got)
			}
		})
	}
	s := &System{Name: "stable", A1: mat.Diag(0.5, 0.4), A2: mat.Diag(0.5, 0.4), X0: []float64{1, 1}, Eth: 0.1, H: 0.02}
	before := CertRefusals()
	if s.certified(nil, s.A2, 2000).box == nil {
		t.Fatal("no certificate for a diagonal contraction")
	}
	if got := CertRefusals() - before; got != 0 {
		t.Fatalf("a certified loop advanced CertRefusals by %d", got)
	}
	// A search cut short by its context is no refusal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before = CertRefusals()
	slow := mat.Diag(0.9999, 0.5)
	if s.certified(ctx, slow, 20000).box != nil || CertRefusals() != before {
		t.Fatal("a cancelled search certified or counted a refusal")
	}
}

// The pure-TT walk (ProbeSteps of A2) stops at its certificate long
// before the horizon, and the step counter shows it.
func TestCertifiedWalkStopsEarly(t *testing.T) {
	s := nonNormalSystem()
	before := SimSteps()
	k, ok, err := s.ProbeSteps(context.Background(), "TT loop", s.A2, 20000, new(Workspace))
	steps := SimSteps() - before
	if err != nil {
		t.Fatal(err)
	}
	wantK, wantOK := s.DwellSteps(0, 20000)
	if k != wantK || ok != wantOK {
		t.Fatalf("ProbeSteps of A2 = (%d, %v), DwellSteps(0) = (%d, %v)", k, ok, wantK, wantOK)
	}
	if steps > 200 {
		t.Fatalf("certified TT walk simulated %d steps, want it to stop within a few dozen", steps)
	}
}

// contractReference is step 2's power loop as it stood before contract
// took its maxima by comparison, formed ε only once the norm alone passes
// and checked each row's g: builtin maxima, ε at every power and one
// overflow check per power. It is the reference contract must match bit
// for bit.
func contractReference(atd, pd, qd, rowAbs, g, sp, w []float64, n, d, horizon int) (contraction, bool) {
	at, p, q := mat.Wrap(n, n, atd), mat.Wrap(n, n, pd), mat.Wrap(n, n, qd)
	for i := range pd {
		pd[i] = 0
	}
	for i := 0; i < n; i++ {
		pd[i*n+i] = 1
		g[i], sp[i] = 0, 0
	}
	for i := range w {
		w[i] = 0
	}
	gam := gamma(n)
	c, h, gMax, sMax, eps := 1.0, 0.0, 0.0, 0.0, 0.0
	for r := 0; ; r++ {
		norm, worst := 0.0, 0.0
		for i := 0; i < n; i++ {
			var t, u float64
			for j, v := range pd[i*n : (i+1)*n] {
				v = math.Abs(v)
				t += v * rowAbs[j]
				u += v
			}
			g[i] += t
			sp[i] += u
			norm, worst = max(norm, u), max(worst, t)
			gMax, sMax = max(gMax, g[i]), max(sMax, sp[i])
		}
		if !(gMax <= math.MaxFloat64) {
			return contraction{}, false
		}
		h += worst
		c = max(c, norm)
		if gam*h >= 0.5 {
			return contraction{}, false
		}
		eps = gam * h * c / (1 - gam*h)
		if r > 0 && norm+eps+0x1p-60 <= 0.25 {
			return contraction{m: r, c: c, gMax: gMax, sMax: sMax, eps: eps, pm: pd}, true
		}
		if gam*c*gMax > 0.2 || r == horizon {
			return contraction{}, false
		}
		for i, v := range pd[:d*n] {
			w[i] = max(w[i], math.Abs(v))
		}
		p.MulTo(q, at)
		p, q = q, p
		pd, qd = qd, pd
	}
}

// contract returns exactly what the loop it replaced returned, bit for
// bit, on random loops of order 1..8: stable ones (one in ten slow),
// unstable ones, and ones with an infinite or a 1e300 entry. Equal search
// results make equal certificates, since the rest of certify reads nothing
// else. -short draws 1 000 loops instead of 5 000.
func TestContractMatchesReferenceLoop(t *testing.T) {
	trials := 5000
	if testing.Short() {
		trials = 1000
	}
	r := rand.New(rand.NewSource(31))
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	found := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(8)
		rho := 0.05 + 0.94*r.Float64()
		if r.Intn(10) == 0 {
			rho = 1 - math.Pow(10, -4+2*r.Float64())
		}
		a := randomLoop(r, n, rho)
		horizon := min(20000, 50+int(30/(1-rho)))
		switch trial % 5 {
		case 1: // unstable: spectral radius 1.01–2
			f := (1.01 + r.Float64()) / rho
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, f*a.At(i, j))
				}
			}
			horizon = 500
		case 2:
			a.Set(r.Intn(n), r.Intn(n), []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300}[r.Intn(4)])
		}
		d := 1 + r.Intn(n)
		at, scale := mat.New(n, n), make([]float64, n)
		a.BalanceTo(at, scale)
		atd := make([]float64, n*n)
		rowAbs := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				atd[i*n+j] = at.At(i, j)
				rowAbs[i] += math.Abs(at.At(i, j))
			}
		}
		type bufs struct{ p, q, g, sp, w []float64 }
		newBufs := func() bufs {
			return bufs{make([]float64, n*n), make([]float64, n*n), make([]float64, n), make([]float64, n), make([]float64, d*n)}
		}
		got, want := newBufs(), newBufs()
		k, ok := contract(nil, atd, got.p, got.q, rowAbs, got.g, got.sp, got.w, n, d, horizon)
		kr, okr := contractReference(atd, want.p, want.q, rowAbs, want.g, want.sp, want.w, n, d, horizon)
		if ok != okr {
			t.Fatalf("trial %d (n=%d): contract found a power %v, the reference %v\nA =\n%v", trial, n, ok, okr, a)
		}
		if !ok {
			continue
		}
		found++
		if k.m != kr.m || !same([]float64{k.c, k.gMax, k.sMax, k.eps}, []float64{kr.c, kr.gMax, kr.sMax, kr.eps}) ||
			!same(k.pm, kr.pm) || !same(got.g, want.g) || !same(got.sp, want.sp) || !same(got.w, want.w) {
			t.Fatalf("trial %d (n=%d): contract %+v, reference %+v\nA =\n%v", trial, n, k, kr, a)
		}
	}
	t.Logf("%d of %d searches found a contracting power", found, trials)
	if found < trials/2 {
		t.Fatalf("only %d of %d searches found a contracting power", found, trials)
	}
}
