package switching

import (
	"fmt"

	"cpsdyn/internal/mat"
)

// HasCertificate reports whether loop matrix a of s has a stop certificate
// within horizon steps, for the external fixture tests.
func HasCertificate(s *System, a *mat.Matrix, horizon int) bool {
	return s.certified(nil, a, horizon).box != nil
}

// Certificate is the stored form of one loop's stop certificate, for the
// external checkers: step 4's box, step 5's box and its d×n matrix V (nil
// when step 5 is not armed), step 6's n×n matrix U and bound L (nil and
// 0 when step 6 is not armed) with its box factor K, and the test settle
// runs on them.
type Certificate struct {
	Box, Box2, V, Q []float64
	L, K            float64
	Holds           func(x []float64) bool
}

// CertificateOf computes the certificate of loop matrix a of s; nil when
// there is none.
func CertificateOf(s *System, a *mat.Matrix, horizon int) *Certificate {
	c := s.certified(nil, a, horizon)
	if c.box == nil {
		return nil
	}
	holds := func(x []float64) bool { return c.holds(x, make([]float64, len(x))) }
	return &Certificate{Box: c.box, Box2: c.box2, V: c.v, Q: c.q, L: c.lim, K: laterK, Holds: holds}
}

// RandomLoop is randomLoop, for the external soundness tests.
var RandomLoop = randomLoop

// CompareStopTests walks s as its curve's certified walks do, the ET walk
// and every kwait's TT walk, each to the stop the reference stop test
// (holdsReference) finds or to the horizon, and evaluates holds against
// holdsReference on every state it passes. It returns how many states it
// compared, or the first one the two tests disagree on.
func CompareStopTests(s *System, horizon int) (int, error) {
	n := len(s.X0)
	c1, c2 := s.certified(nil, s.A1, horizon), s.certified(nil, s.A2, horizon)
	ax, nxt := make([]float64, n), make([]float64, n)
	states := 0
	// walk steps x0 on a to its reference stop; it returns the settling
	// step (one past the last above Eth) or the first disagreement.
	walk := func(a *mat.Matrix, c *certificate, x0 []float64) (int, error) {
		x, last := append([]float64(nil), x0...), -1
		for k := 0; k <= horizon; k++ {
			got, want := c.holds(x, ax), holdsReference(c, x)
			states++
			if got != want {
				return 0, fmt.Errorf("state %v at step %d: holds %v, reference %v", x, k, got, want)
			}
			if s.Norm(x) > s.Eth {
				last = k
			} else if want {
				break
			}
			a.MulVecTo(nxt, x)
			x, nxt = nxt, x
		}
		return last + 1, nil
	}
	kET, err := walk(s.A1, &c1, s.X0)
	if err != nil {
		return states, err
	}
	x := append([]float64(nil), s.X0...)
	for kwait := 0; kwait < kET; kwait++ {
		if _, err := walk(s.A2, &c2, x); err != nil {
			return states, fmt.Errorf("kwait %d: %w", kwait, err)
		}
		s.A1.MulVecTo(nxt, x)
		x, nxt = nxt, x
	}
	return states, nil
}
