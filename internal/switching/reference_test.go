package switching

import (
	"context"
	"math"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
)

// The stop test and the certified walk as they stood before the stop test
// read the sum of test (b) first and the pure-mode walks moved to
// walkOne: the references the new ones must match, boolean for boolean
// and step for step.

// holdsReference is the stop test box first: step 4's box, box (a) and
// box (a') in one pass, then the sum of test (b), then test (c').
func holdsReference(c *certificate, x []float64) bool {
	if inBoxReference(c.box, x) {
		return true
	}
	if c.box2 == nil {
		return false
	}
	inA := true
	for i, b := range c.box2 {
		if a := math.Abs(x[i]); !(a <= b) {
			if c.q == nil || !(a <= laterK*b) {
				return false
			}
			inA = false
		}
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
	if inA {
		return sum <= 1
	}
	if !(sum <= c.lim) {
		return false
	}
	for i := 0; i < len(c.q); i += n {
		z := 0.0
		for j, w := range c.q[i : i+n] {
			z += w * math.Abs(x[j])
		}
		if !(z <= 1) {
			return false
		}
	}
	return true
}

// inBoxReference reports whether |x_i| ≤ b_i for every i; a nil box holds
// for nothing, and NaN entries fail.
func inBoxReference(b, x []float64) bool {
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

// settleCertified is settle stopped by certificate cert through
// holdsReference, with Norm's square root for the threshold: the
// certified walk before walkOne.
func (s *System) settleCertified(ctx context.Context, a *mat.Matrix, x0 []float64, horizon int, sc *scratch, cert certificate) (int, bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
	}
	tr := obs.FromContext(ctx)
	cur, nxt := sc.cur, sc.nxt
	copy(cur, x0)
	lastAbove := -1
	pending := 0
	for k := 0; k <= horizon; k++ {
		if nrm := s.Norm(cur); nrm > s.Eth {
			lastAbove = k
		} else if !(nrm <= s.Eth) {
			countSteps(tr, uint64(pending))
			return 0, false, errOverflow
		} else if holdsReference(&cert, cur) {
			break
		}
		if k == horizon {
			break
		}
		a.MulVecTo(nxt, cur)
		cur, nxt = nxt, cur
		if pending++; pending == stepFlush {
			countSteps(tr, stepFlush)
			pending = 0
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return 0, false, err
				}
			}
		}
	}
	countSteps(tr, uint64(pending))
	if lastAbove == horizon {
		return horizon, false, nil
	}
	return lastAbove + 1, true, nil
}

// certified computes the stop certificate of loop matrix a in a fresh
// workspace, the zero certificate when there is none, and counts a
// refusal as a walk of a would.
func (s *System) certified(ctx context.Context, a *mat.Matrix, horizon int) certificate {
	var ws Workspace
	cert, work, _ := ws.split(a.Rows())
	c := s.certify(ctx, a, horizon, work, cert)
	countRefusal(ctx, &c)
	return c
}

// walkCertified is the production certified walk of loop a from X0 in a
// fresh lane.
func (s *System) walkCertified(ctx context.Context, a *mat.Matrix, horizon int, cert certificate) (int, bool, error) {
	return s.walkOne(ctx, a, &cert, horizon, make([]float64, 3*len(s.X0)))
}
