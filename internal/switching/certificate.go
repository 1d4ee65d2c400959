package switching

import (
	"context"
	"math"

	"cpsdyn/internal/mat"
)

// Stop certificates.
//
// settle looks for the last step at which the walk x_{k+1} = fl(A·x_k) is
// above Eth. A stable loop decays geometrically, so after a few hundred
// steps the answer is known, but the walk cannot see that by itself: a
// non-normal A can lift a small state above Eth again. A certificate
// proves, once per loop matrix, that from some small box on the state can
// never return above Eth, rounding of the walk included; settle stops at
// the first step inside the box. Every later step of the full walk is then
// provably below Eth, so lastAbove is final and (k, ok) is exactly the
// full walk's. DwellSteps keeps the exhaustive walk as the reference.
//
// The proof, for the n×n loop matrix A with the threshold on the first
// d = NormDims components, u = 2⁻⁵³ and γ = n·u/(1−n·u):
//
//  1. Balance. D is a power-of-two diagonal (mat.BalanceTo) and
//     Ã = D⁻¹·A·D, checked to be exact. In y = D⁻¹·x the computed walk is
//     y_{j+1} = Ã·y_j + f_j with |f_j| ≤ γ·|Ã|·|y_j| + ν: a computed n-term
//     dot product errs by at most γ times its absolute terms, plus
//     ν = n·2⁻¹⁰⁷⁴/min_i d_i for subnormal products.
//  2. Contraction block. P_r is the computed Ã^r (MulTo from P_0 = I), and
//     m ≥ 1 the first power with ‖P_m‖∞ + ε ≤ 1/4. ε bounds the error of
//     every computed power up to P_m: P_r − Ã^r = Σ_{s≤r} F_s·Ã^{r−s} with
//     |F_s| ≤ γ·|P_{s−1}|·|Ã|, so ε = γ·H·C/(1−γ·H) for
//     H = Σ_{r<m} ‖|P_r|·|Ã|‖∞ and C = max_{r<m} ‖P_r‖∞ (C ≥ 1 from P_0).
//     The exact powers then satisfy ‖Ã^m‖∞ ≤ 1/4, ‖Ã^r‖∞ ≤ C' = C + ε
//     for r < m, and ‖S·|Ã|‖∞ ≤ G' = ‖S_P·|Ã|‖∞ + m·ε·‖Ã‖∞, where
//     S = Σ_{r<m} |Ã^r| and S_P = Σ_{r<m} |P_r|. There is no certificate
//     without such an m ≤ horizon (marginal and unstable loops).
//  3. Rounding. Require γ·C'·G' ≤ 1/5. Writing y_{k+r} = Ã^r·y_k +
//     Σ_s Ã^{r−1−s}·f_{k+s} and Y = ‖y_k‖∞, induction over r gives
//     ‖y_{k+r}‖∞ ≤ (C'·Y + ν‖S‖∞)/(1−γ·G') ≤ 1.25·(C'·Y + ν‖S‖∞) inside
//     the block and ‖y_{k+m}‖∞ ≤ Y/2 + 1.25·ν‖S‖∞ at its end.
//  4. Stop. τ = Eth / (4·C'·√d·max_{i<d} d_i), and the certificate is
//     refused unless τ·min_i d_i ≥ 2⁻⁹⁰⁰ and n·‖S‖∞ ≤ 2¹⁰⁰, so that
//     2.5·ν‖S‖∞ ≤ τ by a factor of 2⁷⁰ and |x_i| ≤ τ·d_i is an exact test.
//     From a state with ‖y_k‖∞ ≤ τ every block starts at most τ, so every
//     later state has ‖y‖∞ ≤ 1.75·C'·τ and a threshold norm of at most
//     √d·max_{i<d} d_i·1.75·C'·τ = 0.4375·Eth.
//
// The bounds themselves are computed in round-to-nearest. Their relative
// errors (below m·n·u ≈ 10⁻¹¹ for any horizon this package runs) sit far
// inside the slack of the constants: the end-of-block factor 1/2 against
// 1, and 0.4375·Eth against Eth.

// gamma is γ_n = n·u/(1−n·u) for u = 2⁻⁵³: a computed n-term dot product
// differs from the exact one by at most γ_n times the sum of its absolute
// terms, whatever the summation order (absent underflow).
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// certificate holds the per-component stop bounds τ·d_i of one loop
// matrix: a state with every |x_i| ≤ c[i] can never again have a
// threshold norm above Eth. A nil certificate certifies nothing, so a walk
// without one runs to its horizon.
type certificate []float64

// holds reports whether x is inside the certified box. NaN entries fail.
//
//cpsdyn:allocfree checked on every below-threshold step of the settle hot path
func (c certificate) holds(x []float64) bool {
	if c == nil {
		return false
	}
	for i, b := range c {
		if !(math.Abs(x[i]) <= b) {
			return false
		}
	}
	return true
}

// certWorkLen is the workspace length certify needs for an order-n loop:
// the balanced matrix, two power buffers and four n-vectors.
func certWorkLen(n int) int { return 3*n*n + 4*n }

// certCheck is how many powers the contraction search computes between
// context checks: at most ~70 µs of order-8 products.
const certCheck = 64

// certify computes the stop certificate of loop matrix a for the system's
// threshold, writing its bounds to bound (length n) and using work
// (certWorkLen(n)) as scratch. It returns nil when the proof in this
// file's header does not go through within horizon steps, or when ctx
// (nil: never) is cancelled mid-search; the walk then runs as without a
// certificate, and settle reports the cancellation. Nothing here allocates
// beyond what the caller passes in: the matrix headers over work stay on
// the stack.
func (s *System) certify(ctx context.Context, a *mat.Matrix, horizon int, work, bound []float64) certificate {
	n := a.Rows()
	if n == 0 || a.Cols() != n || len(bound) != n {
		return nil
	}
	nn := n * n
	at, p, q := mat.Wrap(n, n, work[:nn]), mat.Wrap(n, n, work[nn:2*nn]), mat.Wrap(n, n, work[2*nn:3*nn])
	atd, pd, qd := work[:nn], work[nn:2*nn], work[2*nn:3*nn]
	vec := work[3*nn : 3*nn+4*n]
	scale, rowAbs, g, sp := vec[:n], vec[n:2*n], vec[2*n:3*n], vec[3*n:]

	// 1. Balance, and check that the scaling was exact: a power-of-two
	// rescaling round-trips bit for bit unless it lost bits.
	a.BalanceTo(at, scale)
	alpha := 0.0 // ‖Ã‖∞
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			v := atd[i*n+j]
			if math.IsInf(v, 0) || math.IsNaN(v) || v*(scale[i]/scale[j]) != a.At(i, j) {
				return nil
			}
			row += math.Abs(v)
		}
		rowAbs[i] = row
		alpha = max(alpha, row)
	}

	// 2. Contraction block. The sums also take in r = m itself, which only
	// loosens them; C cannot grow there, since ‖P_m‖∞ ≤ 1/4 < 1 ≤ C.
	for i := range pd {
		pd[i] = 0
	}
	for i := 0; i < n; i++ {
		pd[i*n+i] = 1
		g[i], sp[i] = 0, 0
	}
	gam := gamma(n)
	c, h, gMax, sMax, eps := 1.0, 0.0, 0.0, 0.0, 0.0
	m := 0
	for r := 0; ; r++ {
		// Row i of |P_r| sums to u and weighs |Ã|'s row sums to t; g and
		// sp accumulate the rows of S_P·|Ã| and S_P.
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
			return nil // overflow or NaN
		}
		h += worst
		c = max(c, norm)
		if gam*h >= 0.5 {
			return nil
		}
		eps = gam * h * c / (1 - gam*h)
		// The 2⁻⁶⁰ margin covers subnormal products in the powers.
		if r > 0 && norm+eps+0x1p-60 <= 0.25 {
			m = r
			break
		}
		// C and G only grow with r: once step 3 fails it fails for good.
		if gam*c*gMax > 0.2 || r == horizon {
			return nil
		}
		if ctx != nil && r%certCheck == 0 && ctx.Err() != nil {
			return nil
		}
		p.MulTo(q, at)
		p, q = q, p
		pd, qd = qd, pd
	}

	// 3. Rounding, on the exact powers' bounds.
	cTrue := c + eps
	gTrue := gMax + float64(m)*eps*alpha
	sTrue := sMax + float64(m)*eps
	if !(gam*cTrue*gTrue <= 0.2) || !(sTrue*float64(n) <= 0x1p100) {
		return nil
	}

	// 4. Stop bounds.
	d := s.normDims()
	dMax, dMin := 0.0, math.Inf(1)
	for i, v := range scale {
		if i < d {
			dMax = max(dMax, v)
		}
		dMin = min(dMin, v)
	}
	tau := s.Eth / (4 * cTrue * math.Sqrt(float64(d)) * dMax)
	if !(tau*dMin >= 0x1p-900) {
		return nil
	}
	for i, v := range scale {
		bound[i] = tau * v
	}
	return bound
}
