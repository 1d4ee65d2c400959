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
// It is AckermannTo into a fresh gain and workspace.
func Ackermann(a, b *mat.Matrix, poles []complex128) (*mat.Matrix, error) {
	k := mat.New(1, a.Rows())
	if err := AckermannTo(k, a, b, poles, new(AckermannWorkspace)); err != nil {
		return nil, err
	}
	return k, nil
}

// AckermannWorkspace holds the matrices AckermannTo designs a gain in. Its
// zero value is ready to use; it sizes itself to the system order on first
// use and again whenever the order changes, so a caller that designs many
// gains of one order (a calibration search) allocates once. A workspace is
// not safe for concurrent use.
type AckermannWorkspace struct {
	n                       int
	ctrb, col, colNext      *mat.Matrix // [B AB … Aⁿ⁻¹B] and the column being formed
	phiA, pow, powNext, tmp *mat.Matrix // φ(A), the power of A being formed, cᵢ·Aⁱ
	ident, cInv, en, enC    *mat.Matrix // I, C⁻¹, eₙᵀ and eₙᵀ·C⁻¹
	lu                      *mat.LU
	poly, polyNext          []complex128 // the characteristic polynomial being expanded
	coeffs                  []float64    // its real coefficients
}

// size makes ws fit order-n systems.
func (ws *AckermannWorkspace) size(n int) {
	if ws.lu != nil && ws.n == n {
		return
	}
	ws.n = n
	ws.ctrb, ws.col, ws.colNext = mat.New(n, n), mat.New(n, 1), mat.New(n, 1)
	ws.phiA, ws.pow, ws.powNext, ws.tmp = mat.New(n, n), mat.New(n, n), mat.New(n, n), mat.New(n, n)
	ws.ident, ws.cInv, ws.en, ws.enC = mat.Identity(n), mat.New(n, n), mat.New(1, n), mat.New(1, n)
	if n > 0 {
		ws.en.Set(0, n-1, 1)
	}
	ws.lu = mat.NewLU(n)
	ws.poly, ws.polyNext = make([]complex128, n+1), make([]complex128, n+1)
	ws.coeffs = make([]float64, n+1)
}

// AckermannTo is Ackermann writing the gain into dst (1×n) and designing
// it in ws; nothing allocates once ws fits the order.
func AckermannTo(dst, a, b *mat.Matrix, poles []complex128, ws *AckermannWorkspace) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("control: Ackermann: A is %d×%d, want square", a.Rows(), a.Cols())
	}
	if b.Rows() != n || b.Cols() != 1 {
		return fmt.Errorf("control: Ackermann: B is %d×%d, want %d×1", b.Rows(), b.Cols(), n)
	}
	if len(poles) != n {
		return fmt.Errorf("control: Ackermann: %d poles for order-%d system", len(poles), n)
	}
	ws.size(n)
	coeffs, err := ws.realCharPoly(poles)
	if err != nil {
		return err
	}
	// Controllability matrix [B AB … Aⁿ⁻¹B].
	col, next := ws.col, ws.colNext
	b.CopyTo(col)
	for j := 0; j < n; j++ {
		ws.ctrb.SetSubmatrix(0, j, col)
		if j+1 < n {
			a.MulTo(next, col)
			col, next = next, col
		}
	}
	// φ(A) = Aⁿ + c₁Aⁿ⁻¹ + … + cₙI, coeffs = [1, c₁, …, cₙ]; pair the
	// rising powers A⁰, A¹, … with cₙ, cₙ₋₁, ….
	phiA, pow, powNext := ws.phiA, ws.pow, ws.powNext
	phiA.Zero()
	ws.ident.CopyTo(pow)
	for i := n; i >= 0; i-- {
		pow.ScaleTo(ws.tmp, coeffs[i])
		phiA.AddTo(phiA, ws.tmp)
		if i > 0 {
			pow.MulTo(powNext, a)
			pow, powNext = powNext, pow
		}
	}
	// K = eₙᵀ · C⁻¹ · φ(A).
	if err := ws.lu.Factor(ws.ctrb); err != nil {
		return fmt.Errorf("control: Ackermann: system not controllable: %w", err)
	}
	ws.lu.SolveTo(ws.cInv, ws.ident)
	ws.en.MulTo(ws.enC, ws.cInv)
	ws.enC.MulTo(dst, phiA)
	return nil
}

// realCharPoly expands Π(z − pᵢ) and verifies the coefficients are real.
// Returns [1, c₁, …, cₙ] with cᵢ the coefficient of zⁿ⁻ⁱ, in ws.coeffs.
func (ws *AckermannWorkspace) realCharPoly(poles []complex128) ([]float64, error) {
	coeff, next := ws.poly[:1], ws.polyNext
	coeff[0] = 1
	for _, p := range poles {
		next = next[:len(coeff)+1]
		clear(next)
		for i, c := range coeff {
			next[i] += c
			next[i+1] -= c * p
		}
		coeff, next = next, coeff[:cap(coeff)]
	}
	out := ws.coeffs[:len(coeff)]
	for i, c := range coeff {
		if math.Abs(imag(c)) > 1e-9*(1+math.Abs(real(c))) {
			return nil, fmt.Errorf("control: poles are not closed under conjugation (coeff %d = %g+%gi)", i, real(c), imag(c))
		}
		out[i] = real(c)
	}
	return out, nil
}
