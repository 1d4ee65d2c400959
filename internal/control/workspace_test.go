package control

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
)

// ackermannReference is Ackermann as it stood before AckermannTo: every
// product, sum and the inverse in fresh matrices. AckermannTo must match
// it bit for bit.
func ackermannReference(a, b *mat.Matrix, poles []complex128) (*mat.Matrix, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("control: Ackermann: A is %d×%d, want square", a.Rows(), a.Cols())
	}
	if b.Rows() != n || b.Cols() != 1 {
		return nil, fmt.Errorf("control: Ackermann: B is %d×%d, want %d×1", b.Rows(), b.Cols(), n)
	}
	if len(poles) != n {
		return nil, fmt.Errorf("control: Ackermann: %d poles for order-%d system", len(poles), n)
	}
	coeff := make([]complex128, 1, len(poles)+1)
	coeff[0] = 1
	for _, p := range poles {
		next := make([]complex128, len(coeff)+1)
		for i, c := range coeff {
			next[i] += c
			next[i+1] -= c * p
		}
		coeff = next
	}
	coeffs := make([]float64, len(coeff))
	for i, c := range coeff {
		if math.Abs(imag(c)) > 1e-9*(1+math.Abs(real(c))) {
			return nil, fmt.Errorf("control: poles are not closed under conjugation (coeff %d = %g+%gi)", i, real(c), imag(c))
		}
		coeffs[i] = real(c)
	}
	ctrb := mat.New(n, n)
	col := b.Clone()
	for j := 0; j < n; j++ {
		ctrb.SetSubmatrix(0, j, col)
		col = a.Mul(col)
	}
	phiA := mat.New(n, n)
	pow := mat.Identity(n)
	for i := n; i >= 0; i-- {
		phiA = phiA.Add(pow.Scale(coeffs[i]))
		if i > 0 {
			pow = pow.Mul(a)
		}
	}
	en := mat.New(1, n)
	en.Set(0, n-1, 1)
	cInv, err := mat.Inverse(ctrb)
	if err != nil {
		return nil, fmt.Errorf("control: Ackermann: system not controllable: %w", err)
	}
	return en.Mul(cInv).Mul(phiA), nil
}

// randomPoles draws n poles inside the unit disc, complex ones in
// conjugate pairs (an unpaired one when broken), with exact zeros and
// negative reals among them.
func randomPoles(r *rand.Rand, n int, broken bool) []complex128 {
	ps := make([]complex128, 0, n)
	for len(ps) < n {
		switch k := r.Intn(6); {
		case k == 0:
			ps = append(ps, 0)
		case k < 3 && len(ps)+2 <= n:
			z := complex(2*r.Float64()-1, r.Float64()) * 0.7
			ps = append(ps, z, complex(real(z), -imag(z)))
		default:
			ps = append(ps, complex(2*r.Float64()-1, 0))
		}
	}
	if broken {
		ps[0] += 0.3i
	}
	return ps
}

// AckermannTo designs the reference's gain bit for bit, with one
// workspace reused across orders 1..8 and random pairs, and fails with the
// reference's error texts: a broken conjugate pair, an uncontrollable
// pair, and shape errors.
func TestAckermannToMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	var ws AckermannWorkspace
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(8)
		a, b := mat.New(n, n), mat.New(n, 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64()*math.Pow(10, -2+3*r.Float64()))
			}
			b.Set(i, 0, r.NormFloat64())
		}
		if trial%50 == 0 {
			b.Set(n-1, 0, 0) // often still controllable
			a = mat.Diag(make([]float64, n)...)
		}
		poles := randomPoles(r, n, trial%20 == 1)
		switch trial % 97 {
		case 3:
			poles = poles[1:]
		case 5:
			b = mat.New(n, 2)
		case 7:
			a = mat.New(n, n+1)
		}
		want, werr := ackermannReference(a, b, poles)
		got := mat.New(1, a.Rows())
		err := AckermannTo(got, a, b, poles, &ws)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("trial %d (n=%d): error %v, reference %v", trial, n, err, werr)
		}
		if err == nil && !got.EqualBits(want) {
			t.Fatalf("trial %d (n=%d): gain\n%v reference\n%v", trial, n, got, want)
		}
		if k, aerr := Ackermann(a, b, poles); (aerr == nil) != (werr == nil) || (aerr == nil && !k.EqualBits(want)) {
			t.Fatalf("trial %d: Ackermann %v (%v), reference %v (%v)", trial, k, aerr, want, werr)
		}
	}
}

// A workspace that fits its order designs a gain without allocating.
func TestAckermannToAllocFree(t *testing.T) {
	a, b := discreteDoubleIntegrator(0.02)
	poles := []complex128{complex(0.7, 0.2), complex(0.7, -0.2)}
	var ws AckermannWorkspace
	k := mat.New(1, 2)
	if err := AckermannTo(k, a, b, poles, &ws); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := AckermannTo(k, a, b, poles, &ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AckermannTo allocates %g times in a fitted workspace", allocs)
	}
}
