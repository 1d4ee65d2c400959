package lti

import (
	"fmt"
	"math"

	"cpsdyn/internal/mat"
)

// DelayTable produces (Γ0, Γ1) pairs for arbitrary per-period delays of one
// plant. The event-level co-simulation uses it to integrate a sampling
// period exactly when the actuation message arrives at a delay that varies
// cycle to cycle (dynamic-segment arbitration).
//
// Results are cached keyed by the delay quantised to nanoseconds; a FlexRay
// schedule produces only a handful of distinct delays, so the cache stays
// tiny.
type DelayTable struct {
	plant  *Continuous
	h      float64
	phi    *mat.Matrix
	gammaH *mat.Matrix // Γ(h) = ∫₀ʰ e^{As} ds · B, shared by every delay split
	cache  map[int64]gammaPair
}

type gammaPair struct {
	g0, g1 *mat.Matrix
}

// NewDelayTable builds a table for the given plant and sampling period.
func NewDelayTable(plant *Continuous, h float64) (*DelayTable, error) {
	if err := plant.Validate(); err != nil {
		return nil, err
	}
	if h <= 0 {
		return nil, fmt.Errorf("lti: DelayTable: sampling period %g must be positive", h)
	}
	// One augmented exponential yields Φ(h) and Γ(h) together; Γ(h) then
	// prices every per-delay split at a single further evaluation via
	// Γ1(d) = Γ(h) − Γ(h−d).
	n, m := plant.Order(), plant.Inputs()
	phi := mat.New(n, n)
	gammaH := mat.New(n, m)
	ws := mat.SharedPool.Get(n + m)
	err := mat.ExpmIntegralTo(phi, gammaH, plant.A, plant.B, h, ws)
	mat.SharedPool.Put(ws)
	if err != nil {
		return nil, err
	}
	return &DelayTable{
		plant:  plant,
		h:      h,
		phi:    phi,
		gammaH: gammaH,
		cache:  make(map[int64]gammaPair),
	}, nil
}

// Gammas returns (Γ0(d), Γ1(d)) for a delay d ∈ [0, h].
func (t *DelayTable) Gammas(d float64) (g0, g1 *mat.Matrix, err error) {
	if d < 0 || d > t.h {
		return nil, nil, fmt.Errorf("lti: DelayTable: delay %g outside [0, %g]", d, t.h)
	}
	key := int64(math.Round(d * 1e9))
	if p, ok := t.cache[key]; ok {
		return p.g0, p.g1, nil
	}
	// Γ0 = Γ(h−d) from one augmented evaluation; Γ1 = Φ(h−d)·Γ(d) falls
	// out of the semigroup split Γ(h) = Γ(h−d) + Φ(h−d)·Γ(d) as
	// Γ(h) − Γ(h−d), so the construction-time Γ(h) is the only other term.
	n, m := t.plant.Order(), t.plant.Inputs()
	g0 = mat.New(n, m)
	phiHmD := mat.New(n, n) // not part of the pair
	ws := mat.SharedPool.Get(n + m)
	err = mat.ExpmIntegralTo(phiHmD, g0, t.plant.A, t.plant.B, t.h-d, ws)
	mat.SharedPool.Put(ws)
	if err != nil {
		return nil, nil, err
	}
	g1 = t.gammaH.Sub(g0)
	t.cache[key] = gammaPair{g0: g0, g1: g1}
	return g0, g1, nil
}

// Step integrates one sampling period with actual delay d: the previous
// input uPrev is held on [0, d) and the new input u on [d, h).
func (t *DelayTable) Step(x, u, uPrev []float64, d float64) ([]float64, error) {
	g0, g1, err := t.Gammas(d)
	if err != nil {
		return nil, err
	}
	next := t.phi.MulVec(x)
	next = mat.VecAdd(next, g0.MulVec(u))
	next = mat.VecAdd(next, g1.MulVec(uPrev))
	return next, nil
}
