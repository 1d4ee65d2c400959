package switching_test

import (
	"math"
	"math/big"
	"testing"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/switching"
)

// An independent checker for the stop certificates, in math/big. It trusts
// none of certify's float arithmetic: it takes the loop matrix, the
// power-of-two balancing diagonal D and the certificate's stored regions,
// forms the balanced powers Ã^r exactly (Ã's entries are dyadic, so
// Ã = N·2^e for an integer matrix N), and re-derives every bound of the
// proof in certificate.go with outward rounding at 256 bits. Each region
// the walk tests must then keep every later state of the computed walk at
// or below Eth, with room for the rounding of Norm itself, and each stored
// test must stand for the bound the proof names.

const exactPrec = 256

func upF() *big.Float   { return new(big.Float).SetPrec(exactPrec).SetMode(big.ToPositiveInf) }
func downF() *big.Float { return new(big.Float).SetPrec(exactPrec).SetMode(big.ToNegativeInf) }

// exactF is x as a big.Float; exact, since x has 53 bits.
func exactF(x float64) *big.Float { return upF().SetFloat64(x) }

func upAdd(a, b *big.Float) *big.Float { return upF().Add(a, b) }
func upMul(a, b *big.Float) *big.Float { return upF().Mul(a, b) }

// upQuo bounds a/b from above, for a an upper and b a lower bound.
func upQuo(a, b *big.Float) *big.Float { return upF().Quo(a, b) }

// upSqrt bounds √a from above; the factor covers Sqrt's rounding, which
// math/big does not promise to direct.
func upSqrt(a *big.Float) *big.Float {
	return upMul(upF().Sqrt(a), exactF(1+0x1p-52))
}
func upMax(a, b *big.Float) *big.Float {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// dyadic writes the float64 entries vals as N_i·2^e with integer N_i.
func dyadic(vals []float64) ([]*big.Int, int) {
	e := math.MaxInt
	for _, v := range vals {
		if v != 0 {
			_, exp := math.Frexp(v)
			e = min(e, exp-53)
		}
	}
	if e == math.MaxInt {
		e = 0
	}
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		frac, exp := math.Frexp(v)
		out[i] = new(big.Int).Lsh(big.NewInt(int64(frac*(1<<53))), uint(exp-53-e))
	}
	return out, e
}

// scaled is x·2^exp rounded up.
func scaled(x *big.Int, exp int) *big.Float {
	f := upF().SetInt(x)
	return f.SetMantExp(f, exp)
}

// exactBounds are the proof's quantities for one loop, from the exact
// powers: every bound an upper bound.
type exactBounds struct {
	m           int          // the first r ≥ 1 with ‖Ã^r‖∞ ≤ 1/4
	contraction *big.Float   // ‖Ã^m‖∞
	c           *big.Float   // max_{r<m} ‖Ã^r‖∞
	s           *big.Float   // ‖S‖∞, S = Σ_{r<m} |Ã^r|
	g           *big.Float   // ‖S·|Ã|‖∞
	maxPow      []*big.Float // max_{r<m} |Ã^r|_ij over the rows i < d, d×n
	powM        []*big.Float // |Ã^m|, n×n
}

// exactPowers walks Ã^r = N^r·2^{r·e} exactly up to the first 4×
// contraction, or fails at horizon.
func exactPowers(t *testing.T, at []float64, n, d, horizon int) exactBounds {
	t.Helper()
	nInt, e := dyadic(at)
	p := make([]*big.Int, n*n)
	for i := range p {
		p[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		p[i*n+i].SetInt64(1)
	}
	b := exactBounds{c: upF(), s: upF(), g: upF(), maxPow: make([]*big.Float, d*n)}
	for i := range b.maxPow {
		b.maxPow[i] = upF()
	}
	sum := make([]*big.Float, n*n) // S
	for i := range sum {
		sum[i] = upF()
	}
	abs, row, q := new(big.Int), new(big.Int), make([]*big.Int, n*n)
	for i := range q {
		q[i] = new(big.Int)
	}
	for r := 0; ; r++ {
		exp := r * e // P_r = Ã^r exactly, as p·2^exp
		rowMax := new(big.Int)
		for i := 0; i < n; i++ {
			row.SetInt64(0)
			for j := 0; j < n; j++ {
				row.Add(row, abs.Abs(p[i*n+j]))
			}
			if row.Cmp(rowMax) > 0 {
				rowMax.Set(row)
			}
		}
		norm := scaled(rowMax, exp)
		// ‖Ã^r‖∞ ≤ 1/4 exactly: 4·rowMax·2^exp ≤ 1.
		if r > 0 {
			four := new(big.Int).Lsh(rowMax, 2)
			one := big.NewInt(1)
			var cmp int
			if exp >= 0 {
				cmp = four.Lsh(four, uint(exp)).Cmp(one)
			} else {
				cmp = four.Cmp(one.Lsh(one, uint(-exp)))
			}
			if cmp <= 0 {
				b.m, b.contraction = r, norm
				b.powM = make([]*big.Float, n*n)
				for k, v := range p {
					b.powM[k] = scaled(abs.Abs(v), exp)
				}
				break
			}
		}
		if r == horizon {
			t.Fatalf("no power up to %d contracts 4× in exact arithmetic", horizon)
		}
		b.c = upMax(b.c, norm)
		for k, v := range p {
			f := scaled(abs.Abs(v), exp)
			sum[k] = upAdd(sum[k], f)
			if k < d*n {
				b.maxPow[k] = upMax(b.maxPow[k], f)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := q[i*n+j].SetInt64(0)
				for k := 0; k < n; k++ {
					acc.Add(acc, new(big.Int).Mul(p[i*n+k], nInt[k*n+j]))
				}
			}
		}
		p, q = q, p
	}
	for i := 0; i < n; i++ {
		srow, grow := upF(), upF()
		for j := 0; j < n; j++ {
			srow = upAdd(srow, sum[i*n+j])
			gij := upF()
			for k := 0; k < n; k++ {
				gij = upAdd(gij, upMul(sum[i*n+k], exactF(math.Abs(at[k*n+j]))))
			}
			grow = upAdd(grow, gij)
		}
		b.s, b.g = upMax(b.s, srow), upMax(b.g, grow)
	}
	return b
}

// checkCertificate re-derives the soundness of the stored regions of loop
// a's certificate and returns Eth over the largest threshold norm each
// allows after the stop (the componentwise and the later-block one 0 when
// unarmed).
func checkCertificate(t *testing.T, s *switching.System, a *mat.Matrix, horizon int) (boxMargin, compMargin, laterMargin float64, m int) {
	t.Helper()
	n := a.Rows()
	d := s.NormDims
	if d == 0 {
		d = n
	}
	cert := switching.CertificateOf(s, a, horizon)
	if cert == nil {
		t.Fatal("no certificate")
	}
	// 1. The balancing is exact: Ã_ij·d_i/d_j == A_ij, with every d_i a
	// power of two.
	at, scale := mat.New(n, n), make([]float64, n)
	a.BalanceTo(at, scale)
	dExp := make([]int, n)
	for i, v := range scale {
		frac, exp := math.Frexp(v)
		if frac != 0.5 {
			t.Fatalf("d_%d = %g is not a power of two", i, v)
		}
		dExp[i] = exp - 1
	}
	atv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			atv[i*n+j] = at.At(i, j)
			back := exactF(at.At(i, j))
			back.SetMantExp(back, dExp[i]-dExp[j])
			if back.Cmp(exactF(a.At(i, j))) != 0 {
				t.Fatalf("balancing is inexact at (%d, %d)", i, j)
			}
		}
	}
	// 2. Exact powers.
	b := exactPowers(t, atv, n, d, horizon)
	m = b.m
	one := exactF(1)
	eth := exactF(s.Eth)
	// γ_n, ν, and κ = 1/(1 − γ·G).
	un := exactF(float64(n) * 0x1p-53)
	gam := upQuo(un, downF().Sub(one, un))
	dMin, dMax := math.Inf(1), 0.0
	for i, v := range scale {
		dMin = min(dMin, v)
		if i < d {
			dMax = max(dMax, v)
		}
	}
	nu := upQuo(exactF(float64(n)*0x1p-1074), exactF(dMin))
	gg := upMul(gam, b.g)
	oneMinus := downF().Sub(one, gg)
	if oneMinus.Sign() <= 0 {
		t.Fatalf("γ·G = %v ≥ 1", gg)
	}
	kappa := upQuo(one, oneMinus)
	// 3. The rounding inequality γ·C·G ≤ 1/5, and the end-of-block factor
	// ρ = ‖Ã^m‖∞ + γ·G·C·κ ≤ 1/2: block j starts at Y_j ≤ ρ^j·Y_0 + σ
	// with σ = 2·κ·ν·‖S‖∞.
	if gcg := upMul(upMul(gam, b.c), b.g); upMul(gcg, exactF(5)).Cmp(one) > 0 {
		t.Fatalf("rounding inequality fails: γ·C·G = %v > 1/5", gcg)
	}
	rho := upAdd(b.contraction, upMul(upMul(gg, b.c), kappa))
	if rho.Cmp(exactF(0.5)) > 0 {
		t.Fatalf("end-of-block factor %v > 1/2", rho)
	}
	nuS := upMul(nu, b.s)
	sigma := upMul(upMul(exactF(2), kappa), nuS)
	// inBlock bounds ‖y‖∞ inside any block for a stop state with
	// ‖y_k‖∞ ≤ y0, and drift the accumulated rounding of any entry there.
	inBlock := func(y0 *big.Float) *big.Float {
		return upMul(kappa, upAdd(upMul(b.c, upAdd(y0, sigma)), nuS))
	}
	drift := func(y0 *big.Float) *big.Float { return upAdd(upMul(gg, inBlock(y0)), nuS) }
	// tauOf is max_i box_i/d_i: the box bounds ‖y‖∞ by it.
	tauOf := func(box []float64) *big.Float {
		tau := upF()
		for i, v := range box {
			f := exactF(v)
			tau = upMax(tau, f.SetMantExp(f, -dExp[i]))
		}
		return tau
	}
	// Room for the rounding of Norm's d-term sum and square root.
	normRoom := upAdd(one, exactF(0x1p-45))
	margin := func(bound *big.Float) float64 {
		x, _ := upQuo(eth, upMul(bound, normRoom)).Float64()
		return x
	}

	// 4. Step 4's box: every later state has ‖y‖∞ ≤ inBlock(τ), so a
	// threshold norm of at most √d·max_{i<d} d_i·inBlock(τ).
	boxBound := upMul(upMul(upSqrt(exactF(float64(d))), exactF(dMax)), inBlock(tauOf(cert.Box)))
	if boxMargin = margin(boxBound); boxMargin < 1 {
		t.Fatalf("box lets the walk reach %v > Eth = %g", boxBound, s.Eth)
	}
	if cert.Box2 == nil {
		if cert.Q != nil {
			t.Fatal("step 6 is armed without step 5")
		}
		return boxMargin, 0, 0, m
	}

	// 5. The componentwise test. theta is the least Θ with
	// Θ·V_ij·d_j ≥ d_i·|Ã^r|_ij for every r < m: the W the stored V stands
	// for. A passing computed test Σ_i ẑ_i² ≤ 1 means ‖V·|x|‖₂ ≤ 1 + η.
	if len(cert.V) != d*n {
		t.Fatalf("V has %d entries, want %d×%d", len(cert.V), d, n)
	}
	theta := upF()
	for i := 0; i < d; i++ {
		for j := 0; j < n; j++ {
			mij := b.maxPow[i*n+j]
			if mij.Sign() == 0 {
				continue
			}
			if cert.V[i*n+j] <= 0 {
				t.Fatalf("V_%d%d = %g under a nonzero power entry", i, j, cert.V[i*n+j])
			}
			vd := exactF(cert.V[i*n+j])
			vd.SetMantExp(vd, dExp[j]-dExp[i])
			theta = upMax(theta, upQuo(mij, vd))
		}
	}
	tiny := exactF(0x1p-1074)
	gd := upQuo(exactF(float64(d)*0x1p-53), downF().Sub(one, exactF(float64(d)*0x1p-53)))
	sq := upQuo(upAdd(one, upMul(exactF(float64(d)), tiny)), downF().Sub(one, gd))
	test := upQuo(upAdd(sq, upMul(exactF(float64(d*n)), tiny)), downF().Sub(one, gam))
	dNorm, w1 := upF(), upF() // ‖d_{:d}‖₂², ‖V·D·1‖₂²
	for i := 0; i < d; i++ {
		dNorm = upAdd(dNorm, upMul(exactF(scale[i]), exactF(scale[i])))
		row := upF()
		for j := 0; j < n; j++ {
			row = upAdd(row, upMul(exactF(cert.V[i*n+j]), exactF(scale[j])))
		}
		w1 = upAdd(w1, upMul(row, row))
	}
	dNorm, w1 = upSqrt(dNorm), upSqrt(w1)
	tau2 := tauOf(cert.Box2)
	rounding := upMul(dNorm, drift(tau2))
	first := upAdd(upMul(theta, test), rounding)
	later := upAdd(upMul(upMul(theta, w1), upAdd(upMul(rho, tau2), sigma)), rounding)
	if compMargin = margin(upMax(first, later)); compMargin < 1 {
		t.Fatalf("componentwise test lets the walk reach %v (first block) / %v (later blocks) > Eth = %g",
			first, later, s.Eth)
	}
	if cert.Q == nil {
		return boxMargin, compMargin, 0, m
	}

	// 6. The later-block test. Its arming inequality κ = 2.5·K·γ·C·G ≤ 2⁻²¹
	// on the exact C and G, and the two stored tests against the bounds
	// the proof names: (b') against Θ' = Eth/(1 + κ + 2⁻⁴⁰), (c') against
	// (1−η)·τ₂/2, each up to the rounding of forming them.
	if len(cert.Q) != n*n || !(cert.L > 0 && cert.L < 1) {
		t.Fatalf("U has %d entries, want %d×%d; L = %g, want it in (0, 1)", len(cert.Q), n, n, cert.L)
	}
	k := exactF(cert.K)
	kappa6 := upMul(upMul(upMul(exactF(2.5), k), gam), upMul(b.c, b.g))
	if kappa6.Cmp(exactF(0x1p-21)) > 0 {
		t.Fatalf("step 6 is armed, but 2.5·K·γ·C·G = %v > 2⁻²¹", kappa6)
	}
	formed := exactF(1 + 0x1p-45) // room for the rounding of the stored forms
	// (b'): the computed sum of test (b) at most L bounds ‖V·|x|‖₂ by
	// testL, so ‖W·|y|‖₂ by theta·testL.
	sqL := upQuo(upAdd(exactF(cert.L), upMul(exactF(float64(d)), tiny)), downF().Sub(one, gd))
	testL := upQuo(upAdd(upSqrt(sqL), upMul(exactF(float64(d*n)), tiny)), downF().Sub(one, gam))
	thetaB := upMul(theta, upSqrt(exactF(cert.L)))
	thetaLo := downF().Quo(eth, upAdd(upAdd(one, kappa6), exactF(0x1p-40)))
	if thetaB.Cmp(upMul(thetaLo, formed)) > 0 {
		t.Fatalf("test (b') stands for ‖W·|y|‖₂ ≤ %v, above Θ' = %v", thetaB, thetaLo)
	}
	// (c'): lam is the least λ with λ·U_ij·d_j ≥ |Ã^m|_ij, and a passing
	// computed row sum Σ_j U_ij·|x_j| ≤ 1 is at most testQ exactly.
	lam := upF()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pij := b.powM[i*n+j]
			if pij.Sign() == 0 {
				continue
			}
			if cert.Q[i*n+j] <= 0 {
				t.Fatalf("U_%d%d = %g under a nonzero entry of Ã^m", i, j, cert.Q[i*n+j])
			}
			qd := exactF(cert.Q[i*n+j])
			qd.SetMantExp(qd, dExp[j])
			lam = upMax(lam, upQuo(pij, qd))
		}
	}
	halfTau := upMul(upMul(tau2, exactF(1-0x1p-19)), exactF(0.5))
	if lam.Cmp(upMul(halfTau, formed)) > 0 {
		t.Fatalf("test (c') stands for ‖|Ã^m|·|y|‖∞ ≤ %v, above (1−η)·τ₂/2 = %v", lam, halfTau)
	}
	testQ := upQuo(upAdd(one, upMul(exactF(float64(n)), tiny)), downF().Sub(one, gam))
	// From ‖y_k‖∞ ≤ K·τ₂: the first block by (b'); the second starts at
	// most y1, and every later block at most y1 + σ.
	drift6 := drift(upMul(k, tau2))
	first6 := upAdd(upMul(thetaB, testL), upMul(dNorm, drift6))
	y1 := upAdd(upMul(lam, testQ), drift6)
	later6 := upAdd(upMul(upMul(theta, w1), upAdd(y1, sigma)), upMul(dNorm, drift(y1)))
	if laterMargin = margin(upMax(first6, later6)); laterMargin < 1 {
		t.Fatalf("later-block test lets the walk reach %v (first block) / %v (later blocks) > Eth = %g",
			first6, later6, s.Eth)
	}
	return boxMargin, compMargin, laterMargin, m
}

// Every fixture certificate passes the exact checker: A1 and A2 of the 20
// probe designs, the diesel engine, the ACC loop and the six calibrated §V
// loops. Every test is armed on every loop but the diesel engine's, whose
// powers grow too far for the later-block test. -short checks the §V TT
// loops and probe design 0.
func TestFixtureCertificatesCheckExactly(t *testing.T) {
	for i, d := range fixtureLoops(t) {
		s, name := d.Sys, d.App.Name
		for _, loop := range []struct {
			name string
			a    *mat.Matrix
		}{{"A1", s.A1}, {"A2", s.A2}} {
			if testing.Short() && i != 0 && !(name[0] == 'C' && loop.name == "A2") {
				continue
			}
			t.Run(name+"/"+loop.name, func(t *testing.T) {
				boxMargin, compMargin, laterMargin, m := checkCertificate(t, s, loop.a, horizon)
				t.Logf("m = %d; Eth over the largest reachable norm: box %.4g, componentwise %.4g, later-block %.4g",
					m, boxMargin, compMargin, laterMargin)
				if compMargin == 0 {
					t.Error("the componentwise test is not armed")
				}
				if laterMargin == 0 && name != "diesel" {
					t.Error("the later-block test is not armed")
				}
			})
		}
	}
}
