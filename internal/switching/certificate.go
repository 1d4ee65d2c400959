package switching

import (
	"context"
	"math"
	"sync/atomic"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
)

// Stop certificates.
//
// settle looks for the last step at which the walk x_{k+1} = fl(A·x_k) is
// above Eth. A stable loop decays geometrically, so after a few hundred
// steps the answer is known, but the walk cannot see that by itself: a
// non-normal A can lift a small state above Eth again. A certificate
// proves, once per loop matrix, that from some small region on the state
// can never return above Eth, rounding of the walk included; settle stops
// at the first below-threshold step inside the region. Every later step of
// the full walk is then provably below Eth, so lastAbove is final and
// (k, ok) is exactly the full walk's. DwellSteps keeps the exhaustive walk
// as the reference.
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
//     and, entrywise, |Ã^r| ≤ |P_r| + ε for r < m, and
//     ‖S·|Ã|‖∞ ≤ G' = ‖S_P·|Ã|‖∞ + m·ε·‖Ã‖∞, where S = Σ_{r<m} |Ã^r| and
//     S_P = Σ_{r<m} |P_r|. There is no certificate without such an
//     m ≤ horizon (marginal and unstable loops).
//  3. Rounding. Require γ·C'·G' ≤ 1/5. Writing y_{k+r} = Ã^r·y_k +
//     Σ_s Ã^{r−1−s}·f_{k+s} and Y = ‖y_k‖∞, induction over r gives
//     ‖y_{k+r}‖∞ ≤ B = (C'·Y + ν‖S‖∞)/(1−γ·G') ≤ 1.25·(C'·Y + ν‖S‖∞)
//     inside the block and ‖y_{k+m}‖∞ ≤ Y/2 + 1.25·ν‖S‖∞ at its end. The
//     accumulated rounding is at most e = γ·G'·B + ν‖S‖∞ in every entry:
//     |y_{k+r}| ≤ |Ã^r|·|y_k| + e·1.
//  4. Box stop. τ = Eth / (4·C'·√d·max_{i<d} d_i), and the certificate is
//     refused unless τ·min_i d_i ≥ 2⁻⁹⁰⁰ and n·‖S‖∞ ≤ 2¹⁰⁰, so that
//     2.5·ν‖S‖∞ ≤ τ by a factor of 2⁷⁰ and |x_i| ≤ τ·d_i is an exact test.
//     From a state with ‖y_k‖∞ ≤ τ every block starts at most τ, so every
//     later state has ‖y‖∞ ≤ 1.75·C'·τ and a threshold norm of at most
//     √d·max_{i<d} d_i·1.75·C'·τ = 0.4375·Eth.
//  5. Componentwise stop. The box pays for the worst transient direction
//     of a non-normal loop on every state; this test bounds the first
//     block row by row instead. Let M_ij = max_{r<m} |P_r|_ij over the
//     thresholded rows i < d and W = D_{:d}·(M + ε), a d×n matrix. By
//     step 2, W ≥ D_{:d}·|Ã^r| entrywise for every r < m, and W·1 ≥ d_{:d}
//     (from P_0 = I). Let δ = 2.5·γ·C'·G' + 2⁻⁴⁰, Θ = Eth/(1+δ) and
//     τ₂ = 2·Θ/‖W·1‖₂. A below-threshold state x_k = D·y_k with
//       (a) |x_i| ≤ τ₂·d_i for every i, that is Y ≤ τ₂, and
//       (b) ‖W·D⁻¹·|x_k|‖₂ = ‖W·|y_k|‖₂ ≤ Θ
//     stops the walk:
//     - First block, r < m. By step 3, |D_{:d}·y_{k+r}| ≤ W·|y_k| + e·d_{:d}
//       entrywise, so the threshold norm is at most Θ + e·‖d_{:d}‖₂.
//     - Later blocks. Block j ≥ 1 starts at ‖y‖∞ ≤ τ₂/2 + 2.5·ν‖S‖∞
//       (step 3, repeated), and W·|y| ≤ ‖y‖∞·W·1, so its threshold norm is
//       at most ‖W·1‖₂·(τ₂/2 + 2.5·ν‖S‖∞) + e·‖d_{:d}‖₂
//       = Θ + 2.5·ν‖S‖∞·‖W·1‖₂ + e·‖d_{:d}‖₂.
//     - Slack. With Y ≤ τ₂ and ‖d_{:d}‖₂ ≤ ‖W·1‖₂,
//       e·‖d_{:d}‖₂ ≤ 1.25·γ·C'·G'·τ₂·‖W·1‖₂ + 1.25·ν‖S‖∞·‖W·1‖₂
//       = 2.5·γ·C'·G'·Θ + 1.25·ν‖S‖∞·‖W·1‖₂. The test is armed only if
//       τ₂·min_i d_i ≥ 2⁻⁹⁰⁰ (so ν‖S‖∞ ≤ 2⁻⁷⁰·τ₂ as in step 4, and the
//       ν terms are below 2⁻⁶⁶·Θ) and τ₂·max_i d_i ≤ 2¹⁰⁰ (so a
//       subnormal entry of the stored matrix moves the test by less than
//       2⁻⁹⁰⁰). Every state after the stop then has a threshold norm of at
//       most Θ·(1 + 2.5·γ·C'·G' + 2⁻⁶⁵) plus the rounding of the test,
//       so below (1+δ)·Θ = Eth by more than the rounding of Norm's own
//       d-term sum: 2⁻⁴⁰ covers both.
//     The stored form of (b) is Σ_{i<d} (Σ_j V_ij·|x_j|)² ≤ 1 with
//     V = W·D⁻¹/Θ: a computed n-term sum of non-negative products and a
//     d-term sum of squares, each within γ_n and γ_d of the exact value.
//     Box (a) is needed, since (b) weighs a component only by what it does
//     within the first block. The box of step 4 is tested first, so no
//     walk stops later than with it alone; for n ≥ 5 it need not lie
//     inside (a)–(b).
//
// The bounds themselves are computed in round-to-nearest. Their relative
// errors (below m·n·u ≈ 10⁻¹¹ for any horizon this package runs) sit far
// inside the slack of the constants: the end-of-block factor 1/2 against
// 1/4, 0.4375·Eth against Eth for the box, and δ's 2⁻⁴⁰ for the
// componentwise test. The certificate tests check every fixture
// certificate against exact powers of Ã in math/big.

// gamma is γ_n = n·u/(1−n·u) for u = 2⁻⁵³: a computed n-term dot product
// differs from the exact one by at most γ_n times the sum of its absolute
// terms, whatever the summation order (absent underflow).
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// certRefusals counts, process-wide, the certify calls that found no
// certificate. A cancelled search is not counted: its loop may well have
// one, and its walk stops on the cancellation anyway.
var certRefusals atomic.Uint64

// CertRefusals returns how many loop matrices got no stop certificate.
// Each refusal means one loop whose settling walks run to their horizon,
// so on a service that derives stable designs it should stay at 0.
func CertRefusals() uint64 { return certRefusals.Load() }

// certificate is the stop test of one loop matrix: a below-threshold
// state it holds for can never again have a threshold norm above Eth. The
// zero value certifies nothing, so a walk without one runs to its
// horizon.
type certificate struct {
	box  []float64 // τ·d_i, step 4's box; nil: no certificate
	box2 []float64 // τ₂·d_i, box (a) of step 5; nil: step 5 is not armed
	v    []float64 // V = W·D⁻¹/Θ, d×n row-major, for test (b) of step 5
}

// holds reports whether x is inside the certified region: step 4's box,
// or else both tests of step 5. NaN entries fail.
//
//cpsdyn:allocfree checked on every below-threshold step of the settle hot path
func (c *certificate) holds(x []float64) bool {
	if inBox(c.box, x) {
		return true
	}
	if !inBox(c.box2, x) {
		return false
	}
	n := len(x)
	sum := 0.0
	for i := 0; i < len(c.v); i += n {
		z := 0.0
		for j, w := range c.v[i : i+n] {
			z += w * math.Abs(x[j])
		}
		sum += z * z
	}
	return sum <= 1
}

// inBox reports whether |x_i| ≤ b_i for every i; a nil box holds for
// nothing, and NaN entries fail.
//
//cpsdyn:allocfree called by holds
func inBox(b, x []float64) bool {
	if b == nil {
		return false
	}
	for i, v := range b {
		if !(math.Abs(x[i]) <= v) {
			return false
		}
	}
	return true
}

// certLen is the length of the buffer an order-n certificate lives in:
// both boxes and the (at most n×n) matrix V.
func certLen(n int) int { return 2*n + n*n }

// certWorkLen is the workspace length certify needs for an order-n loop:
// the balanced matrix, two power buffers and four n-vectors.
func certWorkLen(n int) int { return 3*n*n + 4*n }

// certCheck is how many powers the contraction search computes between
// context checks: at most ~70 µs of order-8 products.
const certCheck = 64

// certify computes the stop certificate of loop matrix a for the system's
// threshold into out (length certLen(n)), using work (certWorkLen(n)) as
// scratch. It returns the zero certificate when the proof in this file's
// header does not go through within horizon steps, or when ctx (nil:
// never) is cancelled mid-search; the walk then runs as without a
// certificate, and settle reports the cancellation. A refusal counts in
// CertRefusals and in ctx's trace. Nothing here allocates beyond what the
// caller passes in: the matrix headers over work stay on the stack.
func (s *System) certify(ctx context.Context, a *mat.Matrix, horizon int, work, out []float64) certificate {
	c := s.prove(ctx, a, horizon, work, out)
	if c.box == nil && (ctx == nil || ctx.Err() == nil) {
		certRefusals.Add(1)
		obs.FromContext(ctx).AddCertRefusals(1)
	}
	return c
}

// prove is certify without the refusal count.
func (s *System) prove(ctx context.Context, a *mat.Matrix, horizon int, work, out []float64) certificate {
	n := a.Rows()
	if n == 0 || a.Cols() != n || len(out) != certLen(n) {
		return certificate{}
	}
	nn := n * n
	at, p, q := mat.Wrap(n, n, work[:nn]), mat.Wrap(n, n, work[nn:2*nn]), mat.Wrap(n, n, work[2*nn:3*nn])
	atd, pd, qd := work[:nn], work[nn:2*nn], work[2*nn:3*nn]
	vec := work[3*nn : 3*nn+4*n]
	scale, rowAbs, g, sp := vec[:n], vec[n:2*n], vec[2*n:3*n], vec[3*n:]
	d := s.normDims()
	box, box2, w := out[:n], out[n:2*n], out[2*n:2*n+d*n]

	// 1. Balance, and check that the scaling was exact: a power-of-two
	// rescaling round-trips bit for bit unless it lost bits.
	a.BalanceTo(at, scale)
	alpha := 0.0 // ‖Ã‖∞
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			v := atd[i*n+j]
			if math.IsInf(v, 0) || math.IsNaN(v) || v*(scale[i]/scale[j]) != a.At(i, j) {
				return certificate{}
			}
			row += math.Abs(v)
		}
		rowAbs[i] = row
		alpha = max(alpha, row)
	}

	// 2. Contraction block. The sums also take in r = m itself, which
	// only loosens them; C cannot grow there, since ‖P_m‖∞ ≤ 1/4 < 1 ≤ C.
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
			return certificate{} // overflow or NaN
		}
		h += worst
		c = max(c, norm)
		if gam*h >= 0.5 {
			return certificate{}
		}
		eps = gam * h * c / (1 - gam*h)
		// The 2⁻⁶⁰ margin covers subnormal products in the powers.
		if r > 0 && norm+eps+0x1p-60 <= 0.25 {
			m = r
			break
		}
		// C and G only grow with r: once step 3 fails it fails for good.
		if gam*c*gMax > 0.2 || r == horizon {
			return certificate{}
		}
		if ctx != nil && r%certCheck == 0 && ctx.Err() != nil {
			return certificate{}
		}
		// M, over the thresholded rows of every P_r with r < m.
		for i, v := range pd[:d*n] {
			w[i] = max(w[i], math.Abs(v))
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
		return certificate{}
	}

	// 4. Box stop.
	dMax, dMin, dAll := 0.0, math.Inf(1), 0.0
	for i, v := range scale {
		if i < d {
			dMax = max(dMax, v)
		}
		dMin, dAll = min(dMin, v), max(dAll, v)
	}
	tau := s.Eth / (4 * cTrue * math.Sqrt(float64(d)) * dMax)
	if !(tau*dMin >= 0x1p-900) {
		return certificate{}
	}
	for i, v := range scale {
		box[i] = tau * v
	}

	// 5. Componentwise stop. ‖W·1‖₂ is summed in units of dMax, so no
	// square under- or overflows: the row holding dMax contributes ≥ 1.
	theta := s.Eth / (1 + 2.5*gam*cTrue*gTrue + 0x1p-40)
	ss := 0.0
	for i := 0; i < d; i++ {
		row := 0.0
		for _, v := range w[i*n : (i+1)*n] {
			row += v + eps
		}
		row *= scale[i] / dMax
		ss += row * row
	}
	tau2 := 2 * theta / (dMax * math.Sqrt(ss))
	if !(tau2*dMin >= 0x1p-900 && tau2*dAll <= 0x1p100) {
		return certificate{box: box}
	}
	for i := 0; i < d; i++ {
		for j, v := range w[i*n : (i+1)*n] {
			w[i*n+j] = (v + eps) / theta * (scale[i] / scale[j])
		}
	}
	for i, v := range scale {
		box2[i] = tau2 * v
	}
	return certificate{box: box, box2: box2, v: w}
}
