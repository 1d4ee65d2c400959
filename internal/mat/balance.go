package mat

import (
	"fmt"
	"math"
)

// Bounds of the balancing: at most maxBalanceSweeps passes over the rows,
// and every scale factor stays within [2⁻²⁵⁶, 2²⁵⁶], so the ratio of any
// two factors is itself a finite power of two.
const (
	maxBalanceSweeps = 64
	minBalanceScale  = 0x1p-256
	maxBalanceScale  = 0x1p256
)

// BalanceTo sets dst = D⁻¹·m·D for the power-of-two diagonal D that the
// Parlett–Reinsch iteration picks (LAPACK's gebal without permutations):
// each pass rescales row i by 1/f and column i by f, f a power of two,
// while that shrinks the row's plus the column's off-diagonal mass by at
// least 5 %. diag(D) is written to d. Scaling by a power of two is exact
// in binary floating point unless an entry overflows or underflows, so dst
// is a similarity transform of m with no rounding in the normal range;
// the eigenvalues are unchanged while the norms of dst and its powers can
// be orders of magnitude below those of m. m must be square, dst the same
// shape and len(d) its order; dst may alias m.
//
//cpsdyn:allocfree runs once per loop matrix inside the settling certificate, in the sampler's fixed workspace
func (m *Matrix) BalanceTo(dst *Matrix, d []float64) {
	m.mustSquare("BalanceTo")
	m.sameShape(dst, "BalanceTo")
	n := m.rows
	if len(d) != n {
		panic(fmt.Sprintf("mat: BalanceTo scale length %d, want %d", len(d), n))
	}
	copy(dst.data, m.data)
	for i := range d {
		d[i] = 1
	}
	a := dst.data
	for sweep := 0; sweep < maxBalanceSweeps; sweep++ {
		converged := true
		for i := 0; i < n; i++ {
			var c, r float64
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(a[j*n+i])
					r += math.Abs(a[i*n+j])
				}
			}
			if c == 0 || r == 0 || math.IsInf(c+r, 0) || math.IsNaN(c+r) {
				continue
			}
			// Find f = 2^k with c·f ≈ r/f; c tracks c·f².
			s, f := c+r, 1.0
			for c < r/2 && d[i]*f < maxBalanceScale {
				f *= 2
				c *= 4
			}
			for c >= 2*r && d[i]*f > minBalanceScale {
				f /= 2
				c /= 4
			}
			if (c+r)/f >= 0.95*s {
				continue
			}
			converged = false
			d[i] *= f
			for j := 0; j < n; j++ {
				a[i*n+j] /= f
				a[j*n+i] *= f
			}
		}
		if converged {
			return
		}
	}
}
