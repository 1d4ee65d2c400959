package switching

import "cpsdyn/internal/mat"

// HasCertificate reports whether loop matrix a of s has a stop certificate
// within horizon steps, for the external fixture tests.
func HasCertificate(s *System, a *mat.Matrix, horizon int) bool {
	return s.certified(nil, a, horizon) != nil
}
