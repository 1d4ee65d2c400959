// Package pwl implements the piecewise-linear dwell-time models of §III of
// the paper. The relation between the wait time kwait (spent on ET
// communication after a disturbance) and the dwell time kdw (spent on the TT
// slot until the state norm re-enters the threshold) is sampled from the
// switching dynamics and approximated by models that must lie ON OR ABOVE
// the sampled curve everywhere — otherwise the schedulability analysis could
// under-estimate response times and deadlines could be violated.
//
// Three model families from the paper, plus one extension:
//
//   - the two-segment NON-MONOTONIC model (0, ξTT) → (kp, ξM) → (ξET, 0),
//     the paper's contribution;
//   - the CONSERVATIVE MONOTONIC model: the second segment extended back to
//     kwait = 0 (intercept ξ′M), safe but over-provisioned;
//   - the SIMPLE MONOTONIC model (0, ξTT) → (ξET, 0): assumed by prior work,
//     UNSAFE (it can under-estimate dwell times);
//   - k-segment hull models ("three or more piecewise linear curves", §III),
//     tighter safe approximations built from supporting lines of the upper
//     concave hull.
package pwl

import (
	"fmt"
	"math"
	"sort"
)

// Point is one sample of the dwell/wait relation, in seconds.
type Point struct {
	Wait  float64 // kwait: time spent in ET communication before the switch
	Dwell float64 // kdw: TT dwell time needed after the switch
}

// Model is a piecewise-linear dwell-time model y = dwell(wait). It is
// represented by breakpoints with strictly increasing Wait; evaluation
// interpolates linearly, is clamped to ≥ 0, and is 0 for wait ≥ XiET.
type Model struct {
	Kind   string  // "non-monotonic", "conservative", "simple", "hull-k"
	Points []Point // breakpoints, Wait strictly increasing
	xiET   float64 // wait beyond which the plant has settled under pure ET
}

// NewModel builds a model from explicit breakpoints. The final breakpoint
// defines ξET (its dwell should be 0 for the paper's models). A NaN
// coordinate is rejected: every comparison with it is false, so it would
// slip past the ordering and sign checks and MaxDwell would skip a NaN
// peak, under-counting interference.
func NewModel(kind string, points []Point) (*Model, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("pwl: model needs at least 2 breakpoints, got %d", len(points))
	}
	for _, p := range points {
		if math.IsNaN(p.Wait) || math.IsNaN(p.Dwell) {
			return nil, fmt.Errorf("pwl: NaN breakpoint (%g, %g)", p.Wait, p.Dwell)
		}
	}
	for i := 1; i < len(points); i++ {
		if points[i].Wait <= points[i-1].Wait {
			return nil, fmt.Errorf("pwl: breakpoint waits must strictly increase (%g after %g)",
				points[i].Wait, points[i-1].Wait)
		}
	}
	for _, p := range points {
		if p.Dwell < 0 || p.Wait < 0 {
			return nil, fmt.Errorf("pwl: negative breakpoint (%g, %g)", p.Wait, p.Dwell)
		}
	}
	pts := append([]Point(nil), points...)
	return &Model{Kind: kind, Points: pts, xiET: pts[len(pts)-1].Wait}, nil
}

// Dwell evaluates the model at the given wait time.
func (m *Model) Dwell(wait float64) float64 {
	if wait < 0 {
		wait = 0
	}
	if wait >= m.xiET {
		return 0
	}
	pts := m.Points
	if wait <= pts[0].Wait {
		return pts[0].Dwell
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Wait >= wait })
	// pts[i-1].Wait < wait ≤ pts[i].Wait
	p0, p1 := pts[i-1], pts[i]
	t := (wait - p0.Wait) / (p1.Wait - p0.Wait)
	v := p0.Dwell + t*(p1.Dwell-p0.Dwell)
	if v < 0 {
		return 0
	}
	return v
}

// Response returns the modelled total response time ξ(kwait) = kwait + kdw,
// capped at ξET: once the wait exceeds ξET the plant has already settled
// under pure ET communication and never needs the slot.
func (m *Model) Response(wait float64) float64 {
	if wait >= m.xiET {
		return m.xiET
	}
	return wait + m.Dwell(wait)
}

// WorstResponse returns the maximum modelled response over wait ∈ [0, maxWait].
// For the paper's models (all segment slopes > −1) this equals
// Response(maxWait); evaluating over all breakpoints keeps the analysis safe
// even for fitted models with steeper segments.
func (m *Model) WorstResponse(maxWait float64) float64 {
	worst := m.Response(maxWait)
	for _, p := range m.Points {
		if p.Wait >= maxWait {
			break
		}
		if r := m.Response(p.Wait); r > worst {
			worst = r
		}
	}
	return worst
}

// MaxDwell returns the peak of the model (the paper's ξM, or ξ′M for the
// conservative model), used as the interference term in eq. (5).
func (m *Model) MaxDwell() float64 {
	max := 0.0
	for _, p := range m.Points {
		if p.Dwell > max {
			max = p.Dwell
		}
	}
	return max
}

// PeakWait returns the wait time at which the model peaks (the paper's kp).
func (m *Model) PeakWait() float64 {
	best := m.Points[0]
	for _, p := range m.Points[1:] {
		if p.Dwell > best.Dwell {
			best = p
		}
	}
	return best.Wait
}

// XiTT returns the modelled dwell at wait = 0 (pure TT response time for the
// paper's non-monotonic model).
func (m *Model) XiTT() float64 { return m.Points[0].Dwell }

// Dominates reports whether the model lies on or above every sample
// (within tol), the safety requirement of §III.
func (m *Model) Dominates(samples []Point, tol float64) bool {
	for _, s := range samples {
		if m.Dwell(s.Wait) < s.Dwell-tol {
			return false
		}
	}
	return true
}

// PaperNonMonotonic builds the two-segment model of Fig. 4 directly from the
// paper's parameters: (0, ξTT) → (kp, ξM) → (ξET, 0).
func PaperNonMonotonic(xiTT, kp, xiM, xiET float64) (*Model, error) {
	if !(0 < kp && kp < xiET) {
		return nil, fmt.Errorf("pwl: need 0 < kp (%g) < ξET (%g)", kp, xiET)
	}
	if xiM < xiTT {
		return nil, fmt.Errorf("pwl: ξM (%g) below ξTT (%g)", xiM, xiTT)
	}
	return NewModel("non-monotonic", []Point{{0, xiTT}, {kp, xiM}, {xiET, 0}})
}

// PaperConservative builds the conservative monotonic model of Fig. 4: the
// declining second segment of the non-monotonic model extended back to
// kwait = 0. Its intercept is the paper's ξ′M = ξM·ξET/(ξET−kp).
func PaperConservative(kp, xiM, xiET float64) (*Model, error) {
	if !(0 < kp && kp < xiET) {
		return nil, fmt.Errorf("pwl: need 0 < kp (%g) < ξET (%g)", kp, xiET)
	}
	xiPrimeM := xiM * xiET / (xiET - kp)
	return NewModel("conservative", []Point{{0, xiPrimeM}, {xiET, 0}})
}

// SimpleMonotonic builds the single segment (0, ξTT) → (ξET, 0) assumed by
// previous works. It is NOT safe: the actual dwell curve typically exceeds
// it except at the two endpoints.
func SimpleMonotonic(xiTT, xiET float64) (*Model, error) {
	if xiET <= 0 {
		return nil, fmt.Errorf("pwl: ξET must be positive, got %g", xiET)
	}
	return NewModel("simple", []Point{{0, xiTT}, {xiET, 0}})
}
