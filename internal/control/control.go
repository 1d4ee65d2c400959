// Package control designs the state-feedback controllers the paper assumes:
// individual stabilising gains for the ET and TT closed loops of every
// application ("The gains can be computed using optimal control principles",
// §II-B). It provides discrete-time infinite-horizon LQR, Ackermann pole
// placement for single-input systems, and settling-time measurement.
package control

import (
	"errors"
	"fmt"
	"math"

	"cpsdyn/internal/mat"
)

// ErrRiccatiDiverged is returned when the Riccati iteration fails to
// converge, which typically indicates an unstabilisable pair (A, B).
var ErrRiccatiDiverged = errors.New("control: Riccati iteration did not converge")

// The Riccati fixed-point iteration stops once ‖P−P′‖∞ ≤ lqrTol·(1+‖P‖∞),
// and gives up after lqrMaxIter steps.
const (
	lqrMaxIter = 10000
	lqrTol     = 1e-12
)

// LQR solves the discrete-time infinite-horizon LQR problem
//
//	min Σ x'Qx + u'Ru  s.t.  x[k+1] = A·x[k] + B·u[k]
//
// by iterating the Riccati difference equation to its fixed point P and
// returns the optimal gain K = (R + B'PB)⁻¹B'PA (so u = −K·x) along with P.
func LQR(a, b, q, r *mat.Matrix) (k, p *mat.Matrix, err error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("control: LQR: A is %d×%d, want square", a.Rows(), a.Cols())
	}
	if b.Rows() != n {
		return nil, nil, fmt.Errorf("control: LQR: B has %d rows, want %d", b.Rows(), n)
	}
	m := b.Cols()
	if q.Rows() != n || q.Cols() != n {
		return nil, nil, fmt.Errorf("control: LQR: Q is %d×%d, want %d×%d", q.Rows(), q.Cols(), n, n)
	}
	if r.Rows() != m || r.Cols() != m {
		return nil, nil, fmt.Errorf("control: LQR: R is %d×%d, want %d×%d", r.Rows(), r.Cols(), m, m)
	}
	at := a.T()
	bt := b.T()
	p = q.Clone()
	for iter := 0; iter < lqrMaxIter; iter++ {
		btp := bt.Mul(p)
		gram := r.Add(btp.Mul(b)) // R + B'PB
		rhs := btp.Mul(a)         // B'PA
		kk, err := mat.Solve(gram, rhs)
		if err != nil {
			return nil, nil, fmt.Errorf("control: LQR: %w", err)
		}
		// P′ = Q + A'PA − A'PB·K
		pNext := q.Add(at.Mul(p).Mul(a)).Sub(at.Mul(p).Mul(b).Mul(kk))
		// Symmetrise to suppress round-off drift.
		pNext = pNext.Add(pNext.T()).Scale(0.5)
		diff := pNext.MaxAbsDiff(p)
		p = pNext
		if diff <= lqrTol*(1+p.NormInf()) {
			return kk, p, nil
		}
		if !p.IsFinite() {
			return nil, nil, ErrRiccatiDiverged
		}
	}
	return nil, nil, ErrRiccatiDiverged
}

// Ackermann places the closed-loop poles of a single-input system at the
// given locations (complex poles must appear in conjugate pairs) and returns
// the gain K (1×n) such that A − B·K has that characteristic polynomial.
func Ackermann(a, b *mat.Matrix, poles []complex128) (*mat.Matrix, error) {
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
	coeffs, err := realCharPoly(poles)
	if err != nil {
		return nil, err
	}
	// Controllability matrix [B AB … Aⁿ⁻¹B].
	ctrb := mat.New(n, n)
	col := b.Clone()
	for j := 0; j < n; j++ {
		ctrb.SetSubmatrix(0, j, col)
		col = a.Mul(col)
	}
	// φ(A) = Aⁿ + c₁Aⁿ⁻¹ + … + cₙI, coeffs = [1, c₁, …, cₙ]; pair the
	// rising powers A⁰, A¹, … with cₙ, cₙ₋₁, ….
	phiA := mat.New(n, n)
	pow := mat.Identity(n)
	for i := n; i >= 0; i-- {
		phiA = phiA.Add(pow.Scale(coeffs[i]))
		if i > 0 {
			pow = pow.Mul(a)
		}
	}
	// K = eₙᵀ · C⁻¹ · φ(A).
	en := mat.New(1, n)
	en.Set(0, n-1, 1)
	cInv, err := mat.Inverse(ctrb)
	if err != nil {
		return nil, fmt.Errorf("control: Ackermann: system not controllable: %w", err)
	}
	return en.Mul(cInv).Mul(phiA), nil
}

// realCharPoly expands Π(z − pᵢ) and verifies the coefficients are real.
// Returns [1, c₁, …, cₙ] with cᵢ the coefficient of zⁿ⁻ⁱ.
func realCharPoly(poles []complex128) ([]float64, error) {
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
	out := make([]float64, len(coeff))
	for i, c := range coeff {
		if math.Abs(imag(c)) > 1e-9*(1+math.Abs(real(c))) {
			return nil, fmt.Errorf("control: poles are not closed under conjugation (coeff %d = %g+%gi)", i, real(c), imag(c))
		}
		out[i] = real(c)
	}
	return out, nil
}
