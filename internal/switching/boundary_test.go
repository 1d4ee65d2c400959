package switching_test

import (
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/switching"
)

// boundaryStates draws states on the edge of a certified stop region:
// vertices of the box (all of them up to order 4, 16 random ones above),
// and random directions, some with components zeroed, each scaled by
// bisection to the largest multiple the stop test still holds for.
func boundaryStates(r *rand.Rand, c *switching.Certificate, n, dirs int) (vertices, edges [][]float64) {
	nv := 1 << min(n, 4)
	for k := 0; k < nv; k++ {
		signs := k
		if n > 4 {
			signs = r.Int()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = c.Box[i]
			if signs>>i&1 == 1 {
				x[i] = -x[i]
			}
		}
		vertices = append(vertices, x)
	}
	outer := c.Box
	if c.Box2 != nil {
		outer = c.Box2
	}
	for k := 0; k < dirs; k++ {
		u := make([]float64, n)
		for i := range u {
			if k%2 == 0 || r.Intn(2) == 0 {
				u[i] = r.NormFloat64() * outer[i]
			}
		}
		at := func(l float64) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = l * u[i]
			}
			return x
		}
		lo, hi := 0.0, 1.0
		for c.Holds(at(hi)) {
			lo, hi = hi, 2*hi
		}
		for it := 0; it < 80 && lo < hi; it++ {
			mid := lo + (hi-lo)/2
			if mid == lo || mid == hi {
				break
			}
			if c.Holds(at(mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if x := at(lo); c.Holds(x) {
			edges = append(edges, x)
		}
	}
	return vertices, edges
}

// worstRatio walks x under a with no certificate for horizon steps, in the
// walk's own arithmetic, and returns the largest threshold norm over Eth.
func worstRatio(s *switching.System, a *mat.Matrix, x []float64, horizon int) float64 {
	cur, nxt := append([]float64(nil), x...), make([]float64, len(x))
	worst := 0.0
	for k := 0; k <= horizon; k++ {
		worst = max(worst, s.Norm(cur)/s.Eth)
		a.MulVecTo(nxt, cur)
		cur, nxt = nxt, cur
	}
	return worst
}

// boundaryWorst checks the stop region of loop a of s from its boundary:
// no state the walk would stop at may lead to a threshold norm above Eth.
// It returns the largest ratio seen from the box vertices and from the
// edges of the whole region.
func boundaryWorst(t *testing.T, r *rand.Rand, s *switching.System, a *mat.Matrix, horizon, dirs int) (vertexWorst, edgeWorst float64, ok bool) {
	t.Helper()
	c := switching.CertificateOf(s, a, horizon)
	if c == nil {
		return 0, 0, false
	}
	vertices, edges := boundaryStates(r, c, a.Rows(), dirs)
	for _, set := range []struct {
		states [][]float64
		worst  *float64
	}{{vertices, &vertexWorst}, {edges, &edgeWorst}} {
		for _, x := range set.states {
			if !c.Holds(x) {
				t.Fatalf("boundary state %v is outside the region it was drawn on", x)
			}
			w := worstRatio(s, a, x, horizon)
			if w > 1 {
				t.Fatalf("stop state %v reaches %.17g·Eth within %d steps\nA =\n%v", x, w, horizon, a)
			}
			*set.worst = max(*set.worst, w)
		}
	}
	return vertexWorst, edgeWorst, true
}

// walkHorizon is how far the boundary walks go: TestPropCertifiedWalk's
// horizon for a loop of spectral radius rho, 30 time constants past 50
// steps, by when every state has decayed by far more than any transient
// can lift it.
func walkHorizon(t *testing.T, a *mat.Matrix) int {
	rho, err := mat.SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	return min(20000, 50+int(30/(1-rho)))
}

// delayChain is a loop on which the later-block bound of the
// componentwise test is nearly tight: a shift register x_i ← b·x_{i+1}
// feeding the one thresholded component, with b just under 1/4. The
// first power contracts 4×, so the first block is one step long and the
// test weighs the upstream components by ε alone; only box (a) keeps them
// small, and one step later they arrive at the threshold. At order 2 the
// walk from the region's edge reaches about 2·b·Eth; with τ₂'s factor 2
// raised to 4.01 it passes Eth. At 4 itself no walk can: a block
// contracts 4× in exact arithmetic, and only the rounding allowance of
// the proof is lost, which the exact checker sees.
func delayChain(n int, b float64) *mat.Matrix {
	a := mat.New(n, n)
	for i := 0; i+1 < n; i++ {
		a.Set(i, i+1, b)
	}
	return a
}

// No state on the boundary of a certified stop region, walked on with no
// certificate, ever has a threshold norm above Eth: random loops as in
// TestPropCertifiedWalkMatchesFullWalk, delay chains, and both loops of
// every fixture.
func TestCertifiedRegionBoundaryIsSound(t *testing.T) {
	trials, dirs := 500, 32
	if testing.Short() {
		trials, dirs = 100, 8
	}
	r := rand.New(rand.NewSource(23))
	var vertexWorst, edgeWorst float64
	certified := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(8)
		rho := 0.05 + 0.94*r.Float64()
		if r.Intn(10) == 0 {
			rho = 1 - math.Pow(10, -4+2*r.Float64())
		}
		a := switching.RandomLoop(r, n, rho)
		s := &switching.System{Name: "random", A1: a, A2: a, X0: make([]float64, n), NormDims: r.Intn(n + 1), H: 0.01,
			Eth: math.Pow(10, -3+6*r.Float64())}
		v, e, ok := boundaryWorst(t, r, s, a, walkHorizon(t, a), dirs)
		if ok {
			certified++
			vertexWorst, edgeWorst = max(vertexWorst, v), max(edgeWorst, e)
		}
	}
	t.Logf("random loops: %d of %d certified; largest norm/Eth from box vertices %.6f, from region edges 1 − %.3g",
		certified, trials, vertexWorst, 1-edgeWorst)
	for _, n := range []int{2, 3, 5} {
		a := delayChain(n, 0.2499)
		s := &switching.System{Name: "chain", A1: a, A2: a, X0: make([]float64, n), NormDims: 1, Eth: 0.1, H: 0.01}
		_, e, ok := boundaryWorst(t, r, s, a, 50, 4*dirs)
		if !ok {
			t.Fatalf("delay chain of order %d: no certificate", n)
		}
		t.Logf("delay chain of order %d: largest norm/Eth from region edges %.6f", n, e)
	}
	vertexWorst, edgeWorst = 0, 0
	for _, d := range fixtureLoops(t) {
		for _, a := range []*mat.Matrix{d.Sys.A1, d.Sys.A2} {
			v, e, ok := boundaryWorst(t, r, d.Sys, a, walkHorizon(t, a), dirs)
			if !ok {
				t.Fatalf("%s: no certificate", d.App.Name)
			}
			vertexWorst, edgeWorst = max(vertexWorst, v), max(edgeWorst, e)
		}
	}
	t.Logf("fixture loops: largest norm/Eth from box vertices %.6f, from region edges 1 − %.3g", vertexWorst, 1-edgeWorst)
}

// Box (a') is the box the exact checker's bounds assume, K times box (a).
// No walk can show a wider one: a component that tests (b') and (c')
// weigh by ε alone is one the first block barely feeds, and only the
// rounding term of the proof grows with it. So the test holds Holds to the
// declared K directly, on a loop whose last component is unthresholded
// and feeds nothing: box (a') alone bounds it, and Holds must accept it
// up to K·τ₂·d and refuse it one ULP beyond.
func TestLaterBlockBoxIsAsDeclared(t *testing.T) {
	a := mat.FromRows([][]float64{{0.5, 0.3, 0}, {-0.2, 0.4, 0}, {0, 0, 0}})
	s := &switching.System{Name: "dead", A1: a, A2: a, X0: make([]float64, 3), NormDims: 2, Eth: 0.1, H: 0.01}
	c := switching.CertificateOf(s, a, 1000)
	if c == nil || c.Q == nil {
		t.Fatalf("certificate %+v: want the later-block test armed", c)
	}
	edge := c.K * c.Box2[2]
	for _, v := range []float64{c.Box2[2], edge, -edge} {
		if !c.Holds([]float64{0, 0, v}) {
			t.Fatalf("Holds refuses the dead component at %g (box (a) %g, K = %g)", v, c.Box2[2], c.K)
		}
	}
	if beyond := math.Nextafter(edge, math.Inf(1)); c.Holds([]float64{0, 0, beyond}) {
		t.Fatalf("Holds accepts the dead component at %g, beyond K·τ₂·d = %g", beyond, edge)
	}
}
