package control

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"cpsdyn/internal/mat"
)

// discreteDoubleIntegrator returns (A, B) for ẍ = u sampled at h with ZOH.
func discreteDoubleIntegrator(h float64) (*mat.Matrix, *mat.Matrix) {
	a := mat.FromRows([][]float64{{1, h}, {0, 1}})
	b := mat.ColVec(h*h/2, h)
	return a, b
}

func TestLQRScalar(t *testing.T) {
	// x[k+1] = a·x + b·u with a=1.2, b=1, Q=1, R=1. The DARE
	// p = q + a²p − (abp)²/(r+b²p) has a positive root; K must stabilise.
	a := mat.FromRows([][]float64{{1.2}})
	b := mat.FromRows([][]float64{{1}})
	q := mat.Identity(1)
	r := mat.Identity(1)
	k, p, err := LQR(a, b, q, r, LQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) <= 0 {
		t.Fatalf("P = %g, want positive", p.At(0, 0))
	}
	acl := a.Sub(b.Mul(k))
	if math.Abs(acl.At(0, 0)) >= 1 {
		t.Fatalf("closed loop %g not stable", acl.At(0, 0))
	}
	// Verify the DARE residual directly.
	pp := p.At(0, 0)
	res := 1 + 1.2*1.2*pp - (1.2*pp)*(1.2*pp)/(1+pp) - pp
	if math.Abs(res) > 1e-9 {
		t.Fatalf("DARE residual = %g", res)
	}
}

func TestLQRStabilizesDoubleIntegrator(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.02)
	k, _, err := LQR(a, b, mat.Identity(2), mat.Identity(1).Scale(0.1), LQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	acl := a.Sub(b.Mul(k))
	stable, err := mat.IsSchurStable(acl)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatalf("closed loop unstable, K = %v", k)
	}
}

func TestLQRShapeErrors(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.02)
	if _, _, err := LQR(mat.New(2, 3), b, mat.Identity(2), mat.Identity(1), LQROptions{}); err == nil {
		t.Fatal("want error for non-square A")
	}
	if _, _, err := LQR(a, mat.New(3, 1), mat.Identity(2), mat.Identity(1), LQROptions{}); err == nil {
		t.Fatal("want error for B rows")
	}
	if _, _, err := LQR(a, b, mat.Identity(3), mat.Identity(1), LQROptions{}); err == nil {
		t.Fatal("want error for Q shape")
	}
	if _, _, err := LQR(a, b, mat.Identity(2), mat.Identity(2), LQROptions{}); err == nil {
		t.Fatal("want error for R shape")
	}
}

func TestAckermannPlacesPoles(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.02)
	want := []complex128{0.9, 0.8}
	k, err := Ackermann(a, b, want)
	if err != nil {
		t.Fatal(err)
	}
	acl := a.Sub(b.Mul(k))
	got, err := mat.Eigenvalues(acl)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if cmplx.Abs(g-w) < 1e-8 {
				found = true
			}
		}
		if !found {
			t.Fatalf("pole %v not placed; got %v", w, got)
		}
	}
}

func TestAckermannComplexPair(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.05)
	want := []complex128{complex(0.7, 0.2), complex(0.7, -0.2)}
	k, err := Ackermann(a, b, want)
	if err != nil {
		t.Fatal(err)
	}
	acl := a.Sub(b.Mul(k))
	got, err := mat.Eigenvalues(acl)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if cmplx.Abs(g-w) < 1e-8 {
				found = true
			}
		}
		if !found {
			t.Fatalf("pole %v not placed; got %v", w, got)
		}
	}
}

func TestAckermannRejectsUnpairedComplex(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.02)
	if _, err := Ackermann(a, b, []complex128{complex(0.5, 0.3), 0.2}); err == nil {
		t.Fatal("want error for unpaired complex pole")
	}
}

func TestAckermannUncontrollable(t *testing.T) {
	// B in the null direction: x2 not reachable.
	a := mat.Diag(0.5, 0.7)
	b := mat.ColVec(1, 0)
	if _, err := Ackermann(a, b, []complex128{0.1, 0.2}); err == nil {
		t.Fatal("want error for uncontrollable pair")
	}
}

// Property: LQR closed loop is Schur stable for random controllable systems.
func TestPropLQRStabilizes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		b := mat.New(n, 1)
		for i := 0; i < n; i++ {
			b.Set(i, 0, r.NormFloat64())
		}
		k, _, err := LQR(a, b, mat.Identity(n), mat.Identity(1), LQROptions{MaxIter: 20000})
		if err != nil {
			return true // random pair may be unstabilisable; skip
		}
		acl := a.Sub(b.Mul(k))
		stable, err := mat.IsSchurStable(acl)
		return err == nil && stable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ackermann reproduces the requested characteristic polynomial for
// random stable real pole sets on controllable systems.
func TestPropAckermannCharPoly(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := 0.01 + 0.05*r.Float64()
		a, b := discreteDoubleIntegrator(h)
		p1 := 0.2 + 0.7*r.Float64()
		p2 := 0.2 + 0.7*r.Float64()
		k, err := Ackermann(a, b, []complex128{complex(p1, 0), complex(p2, 0)})
		if err != nil {
			return false
		}
		acl := a.Sub(b.Mul(k))
		// trace = p1+p2, det = p1·p2 for a 2×2 with those eigenvalues.
		tr := acl.At(0, 0) + acl.At(1, 1)
		det := mat.Det(acl)
		return math.Abs(tr-(p1+p2)) < 1e-7 && math.Abs(det-p1*p2) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
