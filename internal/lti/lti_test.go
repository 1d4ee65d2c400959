package lti

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cpsdyn/internal/mat"
)

// doubleIntegrator returns the plant ẍ = u (servo kinematics skeleton).
func doubleIntegrator() *Continuous {
	return &Continuous{
		Name: "double-integrator",
		A:    mat.FromRows([][]float64{{0, 1}, {0, 0}}),
		B:    mat.ColVec(0, 1),
	}
}

func randomStablePlant(r *rand.Rand, n int) *Continuous {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		a.Set(i, i, a.At(i, i)-float64(n)) // push eigenvalues left
	}
	b := mat.New(n, 1)
	for i := 0; i < n; i++ {
		b.Set(i, 0, r.NormFloat64())
	}
	return &Continuous{Name: "rand", A: a, B: b}
}

func TestValidate(t *testing.T) {
	p := doubleIntegrator()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Continuous{Name: "bad", A: mat.New(2, 3), B: mat.New(2, 1)}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for non-square A")
	}
	badB := &Continuous{Name: "badB", A: mat.New(2, 2), B: mat.New(3, 1)}
	if err := badB.Validate(); err == nil {
		t.Fatal("want error for B row mismatch")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Continuous){
			func(c *Continuous) { c.A.Set(1, 0, v) },
			func(c *Continuous) { c.B.Set(0, 0, v) },
			func(c *Continuous) { c.C = mat.FromRows([][]float64{{1, v}}) },
		} {
			p := doubleIntegrator()
			set(p)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "NaN or infinite") {
				t.Fatalf("entry %g: err = %v, want a non-finite entry rejected", v, err)
			}
		}
	}
}

func TestDiscretizeDoubleIntegratorNoDelay(t *testing.T) {
	// Exact: Φ = [1 h; 0 1], Γ0 = [h²/2; h], Γ1 = 0.
	h := 0.02
	d, err := Discretize(doubleIntegrator(), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantPhi := mat.FromRows([][]float64{{1, h}, {0, 1}})
	if !d.Phi.EqualTol(wantPhi, 1e-12) {
		t.Fatalf("Phi = %v", d.Phi)
	}
	wantG0 := mat.ColVec(h*h/2, h)
	if !d.Gamma0.EqualTol(wantG0, 1e-12) {
		t.Fatalf("Gamma0 = %v", d.Gamma0)
	}
	if d.Gamma1.NormFrob() > 1e-14 {
		t.Fatalf("Gamma1 = %v, want 0", d.Gamma1)
	}
}

func TestDiscretizeFullDelay(t *testing.T) {
	// With d = h the new input has no effect in the current period: Γ0 = 0.
	h := 0.02
	d, err := Discretize(doubleIntegrator(), h, h)
	if err != nil {
		t.Fatal(err)
	}
	if d.Gamma0.NormFrob() > 1e-14 {
		t.Fatalf("Gamma0 = %v, want 0 at full delay", d.Gamma0)
	}
	wantG1 := mat.ColVec(h*h/2, h)
	if !d.Gamma1.EqualTol(wantG1, 1e-12) {
		t.Fatalf("Gamma1 = %v, want %v", d.Gamma1, wantG1)
	}
}

func TestDiscretizeBadArgs(t *testing.T) {
	p := doubleIntegrator()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ h, d float64 }{
		{0, 0},
		{0.02, 0.03},
		{0.02, -0.001},
		// NaN fails no ordered comparison, so a NaN delay used to pass
		// as zero-delay discretisation.
		{0.02, nan},
		{nan, 0},
		{inf, 0.002},
		{0.02, inf},
		{0.02, -inf},
	} {
		if _, err := Discretize(p, c.h, c.d); err == nil {
			t.Fatalf("h = %g, d = %g: want an error", c.h, c.d)
		}
	}
}

// Property: Γ0(d) + Γ1(d) = Γ(h) (total forced response is delay-invariant).
func TestPropGammaSplitInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		p := randomStablePlant(r, n)
		h := 0.005 + 0.05*r.Float64()
		dTot, err := Discretize(p, h, 0)
		if err != nil {
			return false
		}
		d := h * r.Float64()
		dd, err := Discretize(p, h, d)
		if err != nil {
			return false
		}
		sum := dd.Gamma0.Add(dd.Gamma1)
		return sum.EqualTol(dTot.Gamma0, 1e-9*math.Max(1, dTot.Gamma0.NormInf()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// step advances d one sampling period by eq. (1): Φ·x + Γ0·u + Γ1·uPrev.
func step(d *Discrete, x, u, uPrev []float64) []float64 {
	next := mat.VecAdd(d.Phi.MulVec(x), d.Gamma0.MulVec(u))
	return mat.VecAdd(next, d.Gamma1.MulVec(uPrev))
}

// Property: stepping with constant input u = uPrev equals the undelayed
// zero-order-hold response regardless of d.
func TestPropConstantInputDelayInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		p := randomStablePlant(r, n)
		h := 0.01 + 0.02*r.Float64()
		d := h * r.Float64()
		zoh, err1 := Discretize(p, h, 0)
		del, err2 := Discretize(p, h, d)
		if err1 != nil || err2 != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		u := []float64{r.NormFloat64()}
		a := step(zoh, x, u, u)
		b := step(del, x, u, u)
		return mat.VecNorm2(mat.VecSub(a, b)) < 1e-9*(1+mat.VecNorm2(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentedShapeAndDynamics(t *testing.T) {
	h := 0.02
	d, err := Discretize(doubleIntegrator(), h, h/2)
	if err != nil {
		t.Fatal(err)
	}
	abar, bbar := d.Augmented()
	if abar.Rows() != 3 || abar.Cols() != 3 || bbar.Rows() != 3 || bbar.Cols() != 1 {
		t.Fatalf("augmented shapes %d×%d, %d×%d", abar.Rows(), abar.Cols(), bbar.Rows(), bbar.Cols())
	}
	// One augmented step must equal the explicit eq. (1) step.
	x := []float64{0.3, -0.1}
	uPrev := []float64{0.7}
	u := []float64{-0.4}
	z := append(append([]float64{}, x...), uPrev...)
	znext := mat.VecAdd(abar.MulVec(z), bbar.MulVec(u))
	want := step(d, x, u, uPrev)
	for i := 0; i < 2; i++ {
		if math.Abs(znext[i]-want[i]) > 1e-12 {
			t.Fatalf("augmented step %v, plant step %v", znext[:2], want)
		}
	}
	if math.Abs(znext[2]-u[0]) > 1e-15 {
		t.Fatalf("augmented uPrev state = %g, want %g", znext[2], u[0])
	}
}

func TestClosedLoopShapeError(t *testing.T) {
	d, err := Discretize(doubleIntegrator(), 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ClosedLoop(mat.New(1, 2)); err == nil {
		t.Fatal("want error for wrong gain shape")
	}
	if _, err := d.ClosedLoop(mat.New(1, 3)); err != nil {
		t.Fatalf("valid gain rejected: %v", err)
	}
}

func TestOutput(t *testing.T) {
	p := doubleIntegrator()
	p.C = mat.FromRows([][]float64{{1, 0}})
	d, err := Discretize(p, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	y := d.C.MulVec([]float64{3, 9})
	if len(y) != 1 || y[0] != 3 {
		t.Fatalf("C·x = %v, want [3]", y)
	}
}

func TestDelayTableMatchesDiscretize(t *testing.T) {
	p := doubleIntegrator()
	h := 0.02
	tab, err := NewDelayTable(p, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, 0.0007, 0.005, h} {
		g0, g1, err := tab.Gammas(d)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Discretize(p, h, d)
		if err != nil {
			t.Fatal(err)
		}
		if !g0.EqualTol(ref.Gamma0, 1e-12) || !g1.EqualTol(ref.Gamma1, 1e-12) {
			t.Fatalf("delay %g: table gammas differ from Discretize", d)
		}
	}
}

func TestDelayTableCacheAndStep(t *testing.T) {
	tab, err := NewDelayTable(doubleIntegrator(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Gammas(0.001); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Gammas(0.001); err != nil {
		t.Fatal(err)
	}
	if len(tab.cache) != 1 {
		t.Fatalf("cache size = %d, want 1", len(tab.cache))
	}
	if _, err := tab.Step([]float64{1, 0}, []float64{1}, []float64{0}, 0.03); err == nil {
		t.Fatal("want error for delay beyond h")
	}
	next, err := tab.Step([]float64{1, 0}, []float64{0}, []float64{0}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(next[0]-1) > 1e-12 {
		t.Fatalf("free response position = %g, want 1", next[0])
	}
}
