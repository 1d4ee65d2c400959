package switching

import "cpsdyn/internal/mat"

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
	return &Certificate{Box: c.box, Box2: c.box2, V: c.v, Q: c.q, L: c.lim, K: laterK, Holds: c.holds}
}

// RandomLoop is randomLoop, for the external soundness tests.
var RandomLoop = randomLoop
