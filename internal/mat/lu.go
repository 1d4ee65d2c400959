package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU is a reusable LU-factorisation workspace with partial pivoting:
// Factor computes P·A = L·U into preallocated storage and the SolveTo
// methods back-substitute against it without allocating, so one LU can
// serve an unbounded stream of same-order solves (the Padé denominator
// solve inside every matrix exponential). An LU is not safe for
// concurrent use; pool-owned instances are confined to one ExpmWorkspace.
type LU struct {
	n    int
	fact *Matrix   // packed L (unit diagonal, below) and U (on/above diagonal)
	piv  []int     // row permutation
	x    []float64 // per-column substitution scratch
}

// NewLU returns a workspace for factorising n×n matrices.
func NewLU(n int) *LU {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewLU negative order %d", n))
	}
	return &LU{n: n, fact: New(n, n), piv: make([]int, n), x: make([]float64, n)}
}

// Factor computes the LU factorisation of a square matrix into the
// workspace, replacing any previous factorisation. a is not modified.
//
//cpsdyn:allocfree steady-state body of every workspace solve; TestSolveToAllocFree pins it
func (f *LU) Factor(a *Matrix) error {
	a.mustSquare("LU.Factor")
	n := f.n
	if a.rows != n {
		panic(fmt.Sprintf("mat: LU.Factor order %d, workspace is for %d", a.rows, n))
	}
	a.CopyTo(f.fact)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k at/below row k.
		p, maxv := k, math.Abs(f.fact.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.fact.data[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return fmt.Errorf("%w (pivot column %d)", ErrSingular, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.fact.data[k*n+j], f.fact.data[p*n+j] = f.fact.data[p*n+j], f.fact.data[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivVal := f.fact.data[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.fact.data[i*n+k] / pivVal
			f.fact.data[i*n+k] = l
			for j := k + 1; j < n; j++ {
				f.fact.data[i*n+j] -= l * f.fact.data[k*n+j]
			}
		}
	}
	return nil
}

// substitute runs the forward/back substitution for the vector already
// permuted into f.x, leaving the solution in f.x.
//
//cpsdyn:allocfree inner kernel of SolveTo/SolveVecTo
func (f *LU) substitute() {
	n := f.n
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		s := f.x[i]
		for j := 0; j < i; j++ {
			s -= f.fact.data[i*n+j] * f.x[j]
		}
		f.x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := f.x[i]
		for j := i + 1; j < n; j++ {
			s -= f.fact.data[i*n+j] * f.x[j]
		}
		f.x[i] = s / f.fact.data[i*n+i]
	}
}

// SolveTo computes dst = A⁻¹·b column by column against the current
// factorisation, without allocating. dst must have b's shape; dst may
// alias b (each column is staged through the workspace scratch).
//
//cpsdyn:allocfree the "without allocating" contract above; TestSolveToAllocFree pins it
func (f *LU) SolveTo(dst, b *Matrix) {
	if b.rows != f.n {
		panic(fmt.Sprintf("mat: LU.SolveTo rhs has %d rows, want %d", b.rows, f.n))
	}
	b.sameShape(dst, "LU.SolveTo")
	for j := 0; j < b.cols; j++ {
		for i := 0; i < f.n; i++ {
			f.x[i] = b.data[f.piv[i]*b.cols+j]
		}
		f.substitute()
		for i := 0; i < f.n; i++ {
			dst.data[i*b.cols+j] = f.x[i]
		}
	}
}

// SolveVecTo computes dst = A⁻¹·b for a single right-hand-side vector,
// without allocating. dst may alias b.
//
//cpsdyn:allocfree single-vector twin of SolveTo
func (f *LU) SolveVecTo(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic(fmt.Sprintf("mat: LU.SolveVecTo lengths %d/%d, want %d", len(dst), len(b), f.n))
	}
	for i := 0; i < f.n; i++ {
		f.x[i] = b[f.piv[i]]
	}
	f.substitute()
	copy(dst, f.x)
}

// Solve returns X such that A·X = B. A must be square and non-singular.
func Solve(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("mat: Solve shape mismatch %d×%d · X = %d×%d", a.rows, a.cols, b.rows, b.cols)
	}
	f := NewLU(a.rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	out := New(b.rows, b.cols)
	f.SolveTo(out, b)
	return out, nil
}

// SolveVec solves A·x = b for a single right-hand-side vector.
func SolveVec(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: SolveVec shape mismatch %d×%d · x = %d", a.rows, a.cols, len(b))
	}
	f := NewLU(a.rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	out := make([]float64, len(b))
	f.SolveVecTo(out, b)
	return out, nil
}

// Inverse returns A⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// Det returns the determinant of a square matrix (product of U diagonal with
// permutation sign). Returns 0 for singular matrices.
func Det(a *Matrix) float64 {
	a.mustSquare("Det")
	f := NewLU(a.rows)
	if err := f.Factor(a); err != nil {
		return 0
	}
	det := 1.0
	for i := 0; i < f.n; i++ {
		det *= f.fact.data[i*f.n+i]
	}
	// Sign of the permutation.
	seen := make([]bool, f.n)
	for i := 0; i < f.n; i++ {
		if seen[i] {
			continue
		}
		// Each cycle of length L contributes (−1)^{L−1}.
		l := 0
		for j := i; !seen[j]; j = f.piv[j] {
			seen[j] = true
			l++
		}
		if l%2 == 0 {
			det = -det
		}
	}
	return det
}
