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
// A settling walk looks for the last step at which the walk
// x_{k+1} = fl(A·x_k) is above Eth. A stable loop decays geometrically, so
// after a few hundred steps the answer is known, but the walk cannot see
// that by itself: a non-normal A can lift a small state above Eth again. A
// certificate proves, once per loop matrix, that from some small region on
// the state can never return above Eth, rounding of the walk included; the
// certified walks (walkLanes, and walkOne for the pure-mode walks) stop at
// the first below-threshold step inside the region. Every later step of
// the full walk is then provably below Eth, so the last step above is
// final and (k, ok) is exactly the full walk's. A certificate also proves
// ‖Ã^m‖∞ ≤ 1/4, so ρ(A) < 1: the walks take the QR stability check only
// for a loop without one (certifyStable). settle and DwellSteps keep the
// exhaustive walk as the reference.
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
//  6. Later-block stop. Box (a) stands for the later blocks of step 5:
//     it bounds them through ‖W·1‖₂·‖y‖∞/2, which weighs every component
//     of the start state alike. This test bounds the start of the second
//     block through the m-th power instead. Let Q = |P_m| + ε entrywise.
//     Step 2's sums take in r = m, so its ε bounds P_m's error too, and
//     |Ã^m| ≤ Q. With the constants K = 256 and η = 2⁻¹⁹ (laterK,
//     laterEta), the test is armed when step 5 is and
//     κ = 2.5·K·γ·C'·G' ≤ 2⁻²¹. Let Θ' = Eth/(1 + κ + 2⁻⁴⁰). A
//     below-threshold state x_k = D·y_k with
//       (a') ‖y_k‖∞ ≤ K·τ₂,
//       (b') ‖W·|y_k|‖₂ ≤ Θ' and
//       (c') ‖Q·|y_k|‖∞ ≤ (1−η)·τ₂/2
//     stops the walk:
//     - Rounding. By (a'), Y ≤ K·τ₂ in step 3, so
//       e ≤ 1.25·γ·G'·C'·K·τ₂ + 1.25·ν‖S‖∞ ≤ (κ/2 + 2⁻⁶⁹)·τ₂, using
//       γ·G' ≤ 1/5 and step 5's ν‖S‖∞ ≤ 2⁻⁷⁰·τ₂.
//     - First block, r < m. As in step 5 the threshold norm is at most
//       Θ' + e·‖d_{:d}‖₂ ≤ Θ' + e·‖W·1‖₂ ≤ Θ' + (κ + 2⁻⁶⁸)·Θ, with
//       τ₂·‖W·1‖₂ = 2·Θ. Since Θ ≤ Eth = Θ'·(1 + κ + 2⁻⁴⁰) and κ ≤ 2⁻²¹,
//       Θ' + κ·Θ ≤ Θ'·(1 + κ + κ² + 2⁻⁴⁰·κ) ≤ Eth − 2⁻⁴¹·Θ'.
//     - Second block. Step 3 holds at r = m too:
//       |y_{k+m}| ≤ |Ã^m|·|y_k| + e·1 ≤ Q·|y_k| + e·1, so by (c') the
//       second block starts at ‖y_{k+m}‖∞ ≤ (1−η)·τ₂/2 + e ≤ τ₂/2, since
//       κ/2 + 2⁻⁶⁹ ≤ 2⁻²² + 2⁻⁶⁹ leaves most of η/2 = 2⁻²⁰ free.
//     - Later blocks. From a start of at most τ₂/2, every later block
//       starts at most τ₂/2 + 2.5·ν‖S‖∞ (step 3, repeated), so step 5's
//       later-block bound holds for all of them as it stands.
//     - Slack. The 2⁻⁴¹·Θ' left in the first block and the η/2 − 2⁻²¹
//       left at the second block's start cover the rounding of the
//       stored tests and of Norm, the ν terms and the subnormal errors of
//       P_m, each by many orders of magnitude, as in step 5.
//     (c') holds wherever box (a) does, since ‖Q‖∞ ≤ ‖P_m‖∞ + n·ε is
//     about 1/4; where Q's columns are small it holds much further out,
//     and (a') then carries only the rounding term of the first block.
//     The stored form of (b') is (b)'s sum against L = (Θ'/Θ)² < 1, so
//     the test can stop only states outside box (a), and that of (c') is
//     max_i Σ_j U_ij·|x_j| ≤ 1 with U = Q·D⁻¹·2/((1−η)·τ₂), that is
//     column j of Q times 2/((1−η)·τ₂·d_j), a box (a) entry. It is tried
//     after steps 4 and 5 refuse, so no walk stops later than without
//     it.
//
// The bounds themselves are computed in round-to-nearest. Their relative
// errors (below m·n·u ≈ 10⁻¹¹ for any horizon this package runs) sit far
// inside the slack of the constants: the end-of-block factor 1/2 against
// 1/4, 0.4375·Eth against Eth for the box, δ's 2⁻⁴⁰ for the
// componentwise test and η for the later-block test. The certificate
// tests check every fixture certificate against exact powers of Ã in
// math/big.

// gamma is γ_n = n·u/(1−n·u) for u = 2⁻⁵³: a computed n-term dot product
// differs from the exact one by at most γ_n times the sum of its absolute
// terms, whatever the summation order (absent underflow).
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// certRefusals counts, process-wide, the checked loops that walk without
// a certificate (countRefusal). A cancelled search is not counted: its
// loop may well have one, and its walk stops on the cancellation anyway.
var certRefusals atomic.Uint64

// CertRefusals returns how many loop matrices got no stop certificate.
// Each refusal means one loop whose settling walks run to their horizon,
// so on a service that derives stable designs it should stay at 0.
func CertRefusals() uint64 { return certRefusals.Load() }

// The constants of step 6: the box (a') is laterK times box (a), and
// laterEta is the share of (c')'s bound left for the first block's
// rounding.
const (
	laterK   = 256
	laterEta = 0x1p-19
)

// certificate is the stop test of one loop matrix: a below-threshold
// state it holds for can never again have a threshold norm above Eth. The
// zero value certifies nothing, so a walk without one runs to its
// horizon.
type certificate struct {
	box  []float64 // τ·d_i, step 4's box; nil: no certificate
	box2 []float64 // τ₂·d_i, box (a) of step 5; nil: step 5 is not armed
	v    []float64 // V = W·D⁻¹/Θ, d×n row-major, for test (b) of step 5
	q    []float64 // U = Q·D⁻¹·2/((1−η)·τ₂), n×n row-major, for test (c') of step 6; nil: step 6 is not armed
	lim  float64   // L = (Θ'/Θ)², test (b')'s bound on the sum of test (b)
}

// holds reports whether x is inside the certified region: step 4's box,
// or else both tests of step 5, or else the three tests of step 6. It
// reads each |x_j| once, into ax (as long as x), in one pass that tests
// step 4's box and box (a') (box (a) when step 6 is not armed), the only
// box test that can refuse, and ends as soon as both fail. The sum of
// test (b) comes next: (b) and (b') both refuse a sum above 1, since
// L ≤ 1 (certify checks it), so such a state is refused before box (a)'s
// pass decides between them. NaN entries fail every test.
//
//cpsdyn:allocfree checked on every below-threshold step of the walks
func (c *certificate) holds(x, ax []float64) bool {
	if c.box == nil {
		return false
	}
	if len(x) == 3 {
		return c.holds3(x)
	}
	k := 1.0 // box (a'), K·box (a), when step 6 is armed; box (a) else
	if c.q != nil {
		k = laterK
	}
	in, inK := true, c.box2 != nil
	for i, b := range c.box {
		a := math.Abs(x[i])
		ax[i] = a
		in = in && a <= b
		inK = inK && a <= k*c.box2[i]
		if !in && !inK {
			return false
		}
	}
	if in {
		return true
	}
	n := len(x)
	sum := 0.0
	for i := 0; i < len(c.v); i += n {
		z := 0.0
		for j, w := range c.v[i : i+n] {
			z += w * ax[j]
		}
		sum += z * z
	}
	if !(sum <= 1) {
		return false
	}
	inA := true
	for i, b := range c.box2 {
		if !(ax[i] <= b) {
			inA = false
			break
		}
	}
	// Outside box (a), step 6 is armed: without it box (a') is box (a).
	if inA {
		return true
	}
	if !(sum <= c.lim) {
		return false
	}
	for i := 0; i < len(c.q); i += n {
		z := 0.0
		for j, w := range c.q[i : i+n] {
			z += w * ax[j]
		}
		if !(z <= 1) {
			return false
		}
	}
	return true
}

// holds3 is holds at order 3, unrolled: |x| stays in registers, and every
// sum is formed in holds' order. The §V loops are all of order 3, and on
// them it made a `calibrate` pass ~9 % faster than holds' loops
// (EXPERIMENTS.md).
//
//cpsdyn:allocfree holds' order-3 path
func (c *certificate) holds3(x []float64) bool {
	x, box := x[:3], c.box[:3]
	a0, a1, a2 := math.Abs(x[0]), math.Abs(x[1]), math.Abs(x[2])
	if a0 <= box[0] && a1 <= box[1] && a2 <= box[2] {
		return true
	}
	if c.box2 == nil {
		return false
	}
	b := c.box2[:3]
	k := 1.0
	if c.q != nil {
		k = laterK
	}
	if !(a0 <= k*b[0] && a1 <= k*b[1] && a2 <= k*b[2]) {
		return false
	}
	sum := 0.0
	for v := c.v; len(v) >= 3; v = v[3:] {
		z := 0.0
		z += v[0] * a0
		z += v[1] * a1
		z += v[2] * a2
		sum += z * z
	}
	if !(sum <= 1) {
		return false
	}
	if a0 <= b[0] && a1 <= b[1] && a2 <= b[2] {
		return true
	}
	if !(sum <= c.lim) {
		return false
	}
	for q := c.q; len(q) >= 3; q = q[3:] {
		z := 0.0
		z += q[0] * a0
		z += q[1] * a1
		z += q[2] * a2
		if !(z <= 1) {
			return false
		}
	}
	return true
}

// certLen is the length of the buffer an order-n certificate lives in:
// both boxes, the (at most n×n) matrix V and the n×n matrix U.
func certLen(n int) int { return 2*n + 2*n*n }

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
// certificate, and reports the cancellation. Nothing here allocates
// beyond what the caller passes in: the matrix headers over work stay on
// the stack.
func (s *System) certify(ctx context.Context, a *mat.Matrix, horizon int, work, out []float64) certificate {
	n := a.Rows()
	if n == 0 || a.Cols() != n || len(out) != certLen(n) {
		return certificate{}
	}
	nn := n * n
	at, atd := mat.Wrap(n, n, work[:nn]), work[:nn]
	vec := work[3*nn : 3*nn+4*n]
	scale, rowAbs, g, sp := vec[:n], vec[n:2*n], vec[2*n:3*n], vec[3*n:]
	d := s.normDims()
	box, box2, w, qm := out[:n], out[n:2*n], out[2*n:2*n+d*n], out[2*n+nn:]

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

	// 2. Contraction block.
	k, ok := contract(ctx, atd, work[nn:2*nn], work[2*nn:3*nn], rowAbs, g, sp, w, n, d, horizon)
	if !ok {
		return certificate{}
	}

	// 3. Rounding, on the exact powers' bounds.
	cTrue := k.c + k.eps
	gTrue := k.gMax + float64(k.m)*k.eps*alpha
	sTrue := k.sMax + float64(k.m)*k.eps
	gam := gamma(n)
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
			row += v + k.eps
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
			w[i*n+j] = (v + k.eps) / theta * (scale[i] / scale[j])
		}
	}
	for i, v := range scale {
		box2[i] = tau2 * v
	}

	// 6. Later-block stop. Each column of Q is divided by its box (a)
	// entry τ₂·d_j, which step 5's guards keep between 2⁻⁹⁰⁰ and 2¹⁰⁰.
	kappa := laterK * 2.5 * gam * cTrue * gTrue
	if !(kappa <= 0x1p-21) {
		return certificate{box: box, box2: box2, v: w}
	}
	theta6 := s.Eth / (1 + kappa + 0x1p-40)
	// κ ≥ 2.5·γ·C'·G' and rounding is monotone, so Θ' ≤ Θ and L ≤ 1: holds
	// refuses any sum above 1 before it reads box (a).
	lim := (theta6 / theta) * (theta6 / theta)
	if !(lim <= 1) {
		return certificate{box: box, box2: box2, v: w}
	}
	for i, v := range k.pm {
		qm[i] = (math.Abs(v) + k.eps) * (2 / (1 - laterEta)) / box2[i%n]
	}
	return certificate{box: box, box2: box2, v: w, q: qm, lim: lim}
}

// certifyStable is certify for a loop whose stability is not yet checked.
// A certificate proves ‖Ã^m‖∞ ≤ 1/4, so ρ(a) < 1 and a is Schur stable;
// only a refused loop takes validateStable's QR solve, and an unstable one
// fails with its error. The caller counts a refusal (countRefusal) once
// every loop it walks has passed.
func (s *System) certifyStable(ctx context.Context, a *mat.Matrix, horizon int, work, out []float64) (certificate, error) {
	c := s.certify(ctx, a, horizon, work, out)
	if c.box == nil {
		if err := s.validateStable(a); err != nil {
			return certificate{}, err
		}
	}
	return c, nil
}

// countRefusal counts c in CertRefusals and in ctx's trace when it is the
// zero certificate of a loop about to walk, unless ctx (nil: never) was
// cancelled: a cancelled search is no refusal.
func countRefusal(ctx context.Context, c *certificate) {
	if c.box == nil && (ctx == nil || ctx.Err() == nil) {
		certRefusals.Add(1)
		obs.FromContext(ctx).AddCertRefusals(1)
	}
}

// contraction is what step 2's power search found.
type contraction struct {
	m    int       // the first power with ‖P_m‖∞ + ε ≤ 1/4
	c    float64   // C = max_{r<m} ‖P_r‖∞
	gMax float64   // ‖S_P·|Ã|‖∞, with r = m taken in
	sMax float64   // ‖S_P‖∞, with r = m taken in
	eps  float64   // ε
	pm   []float64 // the computed P_m, n×n row-major: one of the two power buffers
}

// contract runs step 2 on the order-n balanced matrix atd (row-major,
// with absolute row sums rowAbs): it computes P_r = fl(P_{r−1}·Ã) from
// P_0 = I, ping-ponging between the buffers pd and qd, until the first
// power that contracts 4×. On the way it accumulates the rows of S_P·|Ã|
// in g and of S_P in sp, and M, the entrywise maximum of |P_r| over the
// first d rows, in w (d×n). It fails when no power within horizon
// contracts, when step 3's inequality fails first, on overflow or NaN, and
// when ctx (nil: never) is cancelled. Each power's bookkeeping is formed
// with the power itself (powers.step), in the order a separate pass over
// P_r would form it.
func contract(ctx context.Context, atd, pd, qd, rowAbs, g, sp, w []float64, n, d, horizon int) (contraction, bool) {
	// The sums also take in r = m, which only loosens them; C cannot grow
	// there, since ‖P_m‖∞ ≤ 1/4 < 1 ≤ C.
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
	c, h := 1.0, 0.0
	ps := powers{at: atd, rowAbs: rowAbs, g: g, sp: sp, w: w, n: n, d: d}
	ps.bookRows(pd)
	for r := 0; ; r++ {
		if !ps.ok {
			return contraction{}, false // overflow or NaN
		}
		h += ps.worst
		if ps.norm > c {
			c = ps.norm
		}
		if gam*h >= 0.5 {
			return contraction{}, false
		}
		// The 2⁻⁶⁰ margin covers subnormal products in the powers. ε ≥ 0
		// and rounding is monotone, so the test cannot pass unless
		// ‖P_r‖∞ + 2⁻⁶⁰ ≤ 1/4 does, and ε is formed only then.
		if r > 0 && ps.norm+0x1p-60 <= 0.25 {
			eps := gam * h * c / (1 - gam*h)
			if ps.norm+eps+0x1p-60 <= 0.25 {
				return contraction{m: r, c: c, gMax: ps.gMax, sMax: ps.sMax, eps: eps, pm: pd}, true
			}
		}
		// C and G only grow with r: once step 3 fails it fails for good.
		if gam*c*ps.gMax > 0.2 || r == horizon {
			return contraction{}, false
		}
		if ctx != nil && r%certCheck == 0 && ctx.Err() != nil {
			return contraction{}, false
		}
		if n == 3 {
			ps.step3(qd, pd)
		} else {
			ps.step(qd, pd)
		}
		pd, qd = qd, pd
	}
}

// powers is the state of contract's search between two powers: the
// balanced matrix Ã (at, row-major) and its absolute row sums, the rows of
// S_P·|Ã| (g) and of S_P (sp) and M (w, d×n) so far, and the bookkeeping
// of the last power booked.
type powers struct {
	at, rowAbs, g, sp, w []float64
	n, d                 int
	norm, worst          float64 // ‖P_r‖∞ and the largest row of |P_r|·|Ã|, its term of H
	gMax, sMax           float64 // the largest rows of S_P·|Ã| and S_P so far
	ok                   bool    // false: a row of S_P·|Ã| overflowed or is NaN
}

// bookRows books P_0 (p) as step books every later power.
//
//cpsdyn:allocfree books P_0 of every power search
func (ps *powers) bookRows(p []float64) {
	n := ps.n
	ps.norm, ps.worst, ps.ok = 0, 0, false
	for i := 0; i < n; i++ {
		var t, u float64
		for j, v := range p[i*n : (i+1)*n] {
			v = math.Abs(v)
			t += v * ps.rowAbs[j]
			u += v
		}
		if !ps.book(i, t, u) {
			return
		}
	}
	ps.ok = true
}

// book takes row i of a power into the sums: row i of |P_r| sums to u and
// weighs |Ã|'s row sums to t, and g_i, sp_i take them in. Every term is
// non-negative, so a comparison takes each maximum; a NaN or infinite
// entry of P_r makes its row's g non-finite, and book then reports false.
//
//cpsdyn:allocfree inlined into every row of the power search
func (ps *powers) book(i int, t, u float64) bool {
	gi := ps.g[i] + t
	if !(gi <= math.MaxFloat64) {
		return false
	}
	ps.g[i] = gi
	si := ps.sp[i] + u
	ps.sp[i] = si
	if u > ps.norm {
		ps.norm = u
	}
	if t > ps.worst {
		ps.worst = t
	}
	if gi > ps.gMax {
		ps.gMax = gi
	}
	if si > ps.sMax {
		ps.sMax = si
	}
	return true
}

// step forms q = p·Ã and books it, while it raises M to |p| over p's
// first d rows: p is the power just tested, q the next. Each entry of q is
// summed over k ascending from +0, as MulTo sums it, so q is fl(p·Ã) bit
// for bit, and its row sums over j ascending from +0, as a separate pass
// over q would.
//
//cpsdyn:allocfree one call per power of the search
func (ps *powers) step(q, p []float64) {
	n, at, rowAbs := ps.n, ps.at, ps.rowAbs
	ps.norm, ps.worst, ps.ok = 0, 0, false
	for i := 0; i < n; i++ {
		prow, qrow := p[i*n:(i+1)*n], q[i*n:(i+1)*n]
		if i < ps.d {
			wrow := ps.w[i*n : (i+1)*n]
			for j, v := range prow {
				if v = math.Abs(v); v > wrow[j] {
					wrow[j] = v
				}
			}
		}
		var t, u float64
		for j := range qrow {
			var s float64
			for k, a := range prow {
				s += a * at[k*n+j]
			}
			qrow[j] = s
			v := math.Abs(s)
			t += v * rowAbs[j]
			u += v
		}
		if !ps.book(i, t, u) {
			return
		}
	}
	ps.ok = true
}

// step3 is step at order 3, unrolled as mulToSmall's order-3 product is:
// Ã's nine entries and |Ã|'s row sums stay in registers.
//
//cpsdyn:allocfree one call per power of the order-3 searches
func (ps *powers) step3(q, p []float64) {
	at, rowAbs, w := ps.at[:9], ps.rowAbs[:3], ps.w
	b00, b01, b02 := at[0], at[1], at[2]
	b10, b11, b12 := at[3], at[4], at[5]
	b20, b21, b22 := at[6], at[7], at[8]
	r0, r1, r2 := rowAbs[0], rowAbs[1], rowAbs[2]
	ps.norm, ps.worst, ps.ok = 0, 0, false
	for i := 0; i < 3; i++ {
		prow, qrow := p[3*i:3*i+3], q[3*i:3*i+3]
		a0, a1, a2 := prow[0], prow[1], prow[2]
		if i < ps.d {
			wrow := w[3*i : 3*i+3]
			if v := math.Abs(a0); v > wrow[0] {
				wrow[0] = v
			}
			if v := math.Abs(a1); v > wrow[1] {
				wrow[1] = v
			}
			if v := math.Abs(a2); v > wrow[2] {
				wrow[2] = v
			}
		}
		var s0, s1, s2 float64
		s0 += a0 * b00
		s0 += a1 * b10
		s0 += a2 * b20
		s1 += a0 * b01
		s1 += a1 * b11
		s1 += a2 * b21
		s2 += a0 * b02
		s2 += a1 * b12
		s2 += a2 * b22
		qrow[0], qrow[1], qrow[2] = s0, s1, s2
		v0, v1, v2 := math.Abs(s0), math.Abs(s1), math.Abs(s2)
		var t, u float64
		t += v0 * r0
		u += v0
		t += v1 * r1
		u += v1
		t += v2 * r2
		u += v2
		if !ps.book(i, t, u) {
			return
		}
	}
	ps.ok = true
}
