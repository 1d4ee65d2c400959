package mat

import (
	"fmt"
	"math"
)

// padé [6/6] numerator coefficients for exp(x); the denominator uses the
// same magnitudes with alternating signs.
var padeCoeff = [...]float64{
	1,
	1.0 / 2,
	5.0 / 44,
	1.0 / 66,
	1.0 / 792,
	1.0 / 15840,
	1.0 / 665280,
}

// ExpmWorkspace holds every intermediate an order-n matrix exponential
// needs — the scaled input, the Padé numerator/denominator and Horner
// power ping-pong, the squaring scratch, the LU solve workspace and
// (for ExpmIntegralTo) the augmented block and its exponential — so
// ExpmTo and ExpmIntegralTo allocate nothing after the workspace is
// built. A workspace is not safe for concurrent use; rent one per
// goroutine from a Pool, or own one per single-threaded caller.
type ExpmWorkspace struct {
	n int
	// Padé pipeline buffers, all n×n.
	as, num, den, term, sq *Matrix
	pow, powNext           *Matrix
	lu                     *LU
	// ExpmIntegralTo staging: the [A B; 0 0]·t block and its exponential.
	blk, eblk *Matrix
}

// NewExpmWorkspace returns a workspace for order-n exponentials
// (ExpmIntegralTo with A ∈ ℝᵏˣᵏ, B ∈ ℝᵏˣᵐ needs order n = k+m).
func NewExpmWorkspace(n int) *ExpmWorkspace {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewExpmWorkspace negative order %d", n))
	}
	return &ExpmWorkspace{
		n:       n,
		as:      New(n, n),
		num:     New(n, n),
		den:     New(n, n),
		term:    New(n, n),
		sq:      New(n, n),
		pow:     New(n, n),
		powNext: New(n, n),
		lu:      NewLU(n),
		blk:     New(n, n),
		eblk:    New(n, n),
	}
}

// Expm returns the matrix exponential e^A computed with a [6/6] Padé
// approximant and scaling-and-squaring. A must be square. It is a thin
// allocating wrapper over ExpmTo renting its workspace from SharedPool.
func Expm(a *Matrix) (*Matrix, error) {
	a.mustSquare("Expm")
	n := a.rows
	if n == 0 {
		return New(0, 0), nil
	}
	ws := SharedPool.Get(n)
	defer SharedPool.Put(ws)
	e := New(n, n)
	if err := ExpmTo(e, a, ws); err != nil {
		return nil, err
	}
	return e, nil
}

// ExpmTo computes dst = e^A into caller-held storage, allocating nothing.
// A must be square of the workspace's order, dst the same shape; dst must
// not alias A or any workspace buffer, and A must not be a workspace
// buffer other than ws.blk (ExpmIntegralTo relies on that one aliasing).
// The only heap traffic on this path is the error construction when A
// cannot be scaled or the Padé denominator is singular.
//
//cpsdyn:allocfree the steady-state exponential kernel; TestExpmToAllocFree pins it
func ExpmTo(dst, a *Matrix, ws *ExpmWorkspace) error {
	a.mustSquare("ExpmTo")
	n := a.rows
	if ws.n != n {
		panic(fmt.Sprintf("mat: ExpmTo order %d, workspace is for %d", n, ws.n))
	}
	a.sameShape(dst, "ExpmTo")
	if n == 0 {
		return nil
	}
	// Scale so that ‖A/2^s‖₁ ≤ 1/2.
	norm := a.Norm1()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	if s > 64 {
		return fmt.Errorf("mat: Expm norm %g too large to scale", norm)
	}
	a.ScaleTo(ws.as, math.Pow(2, -float64(s)))

	// Evaluate the Padé numerator N and denominator D by Horner powers.
	ws.num.setIdentityScaled(padeCoeff[0])
	ws.den.setIdentityScaled(padeCoeff[0])
	ws.pow.setIdentityScaled(1)
	sign := 1.0
	for k := 1; k < len(padeCoeff); k++ {
		ws.pow.MulTo(ws.powNext, ws.as)
		ws.pow, ws.powNext = ws.powNext, ws.pow
		sign = -sign
		ws.pow.ScaleTo(ws.term, padeCoeff[k])
		ws.num.AddTo(ws.num, ws.term)
		if sign < 0 {
			ws.den.SubTo(ws.den, ws.term)
		} else {
			ws.den.AddTo(ws.den, ws.term)
		}
	}
	if err := ws.lu.Factor(ws.den); err != nil {
		return fmt.Errorf("mat: Expm Padé solve: %w", err)
	}
	ws.lu.SolveTo(dst, ws.num)
	// Undo the scaling by repeated squaring, ping-ponging between dst and
	// the squaring scratch so no step multiplies in place.
	cur, next := dst, ws.sq
	for i := 0; i < s; i++ {
		cur.MulTo(next, cur)
		cur, next = next, cur
	}
	if cur != dst {
		cur.CopyTo(dst)
	}
	return nil
}

// ExpmIntegral returns, for the pair (A ∈ ℝⁿˣⁿ, B ∈ ℝⁿˣᵐ) and t ≥ 0, both
//
//	Φ(t) = e^{At}   and   Γ(t) = ∫₀ᵗ e^{As} ds · B,
//
// using the block-matrix identity
//
//	exp([A B; 0 0]·t) = [Φ(t) Γ(t); 0 I].
//
// This is the standard tool for discretising continuous-time LTI systems.
// It is a thin allocating wrapper over ExpmIntegralTo renting its order
// n+m workspace from SharedPool.
func ExpmIntegral(a, b *Matrix, t float64) (phi, gamma *Matrix, err error) {
	a.mustSquare("ExpmIntegral")
	if b.rows != a.rows {
		return nil, nil, fmt.Errorf("mat: ExpmIntegral B has %d rows, want %d", b.rows, a.rows)
	}
	n, m := a.rows, b.cols
	ws := SharedPool.Get(n + m)
	defer SharedPool.Put(ws)
	phi = New(n, n)
	gamma = New(n, m)
	if err := ExpmIntegralTo(phi, gamma, a, b, t, ws); err != nil {
		return nil, nil, err
	}
	return phi, gamma, nil
}

// ExpmIntegralTo is the workspace form of ExpmIntegral: it stages the
// augmented block [A B; 0 0]·t inside ws, exponentiates it with ExpmTo
// and copies Φ(t) into phi (n×n) and Γ(t) into gamma (n×m), allocating
// nothing. The workspace order must be n+m; phi and gamma must not alias
// A, B or each other.
//
//cpsdyn:allocfree the discretisation kernel under lti.Discretize; TestExpmIntegralToAllocFree pins it
func ExpmIntegralTo(phi, gamma, a, b *Matrix, t float64, ws *ExpmWorkspace) error {
	a.mustSquare("ExpmIntegralTo")
	if b.rows != a.rows {
		return fmt.Errorf("mat: ExpmIntegral B has %d rows, want %d", b.rows, a.rows)
	}
	if t < 0 {
		return fmt.Errorf("mat: ExpmIntegral negative time %g", t)
	}
	n, m := a.rows, b.cols
	N := n + m
	if ws.n != N {
		panic(fmt.Sprintf("mat: ExpmIntegralTo order %d+%d, workspace is for %d", n, m, ws.n))
	}
	if phi.rows != n || phi.cols != n {
		panic(fmt.Sprintf("mat: ExpmIntegralTo phi %d×%d, want %d×%d", phi.rows, phi.cols, n, n))
	}
	if gamma.rows != n || gamma.cols != m {
		panic(fmt.Sprintf("mat: ExpmIntegralTo gamma %d×%d, want %d×%d", gamma.rows, gamma.cols, n, m))
	}
	// Stage [A B; 0 0]·t. The bottom block rows stay zero.
	for i := range ws.blk.data {
		ws.blk.data[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ws.blk.data[i*N+j] = a.data[i*n+j] * t
		}
		for j := 0; j < m; j++ {
			ws.blk.data[i*N+n+j] = b.data[i*m+j] * t
		}
	}
	if err := ExpmTo(ws.eblk, ws.blk, ws); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		copy(phi.data[i*n:(i+1)*n], ws.eblk.data[i*N:i*N+n])
		copy(gamma.data[i*m:(i+1)*m], ws.eblk.data[i*N+n:i*N+N])
	}
	return nil
}
