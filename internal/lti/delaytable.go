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
	sampling // Φ(h) and Γ(h), shared by every delay split
	cache    map[int64]gammaPair
}

type gammaPair struct {
	g0, g1 *mat.Matrix
}

// NewDelayTable builds a table for the given plant and sampling period,
// checked as Discretize checks them.
func NewDelayTable(plant *Continuous, h float64) (*DelayTable, error) {
	if err := checkPeriod(plant, h); err != nil {
		return nil, err
	}
	ws := mat.SharedPool.Get(plant.Order() + plant.Inputs())
	s, err := sample(plant, h, ws)
	mat.SharedPool.Put(ws)
	if err != nil {
		return nil, err
	}
	return &DelayTable{sampling: s, cache: make(map[int64]gammaPair)}, nil
}

// Gammas returns (Γ0(d), Γ1(d)) for a delay d ∈ [0, h], Discretize's
// split.
func (t *DelayTable) Gammas(d float64) (g0, g1 *mat.Matrix, err error) {
	if !(d >= 0 && d <= t.h) {
		return nil, nil, fmt.Errorf("lti: DelayTable: delay %g outside [0, %g]", d, t.h)
	}
	key := int64(math.Round(d * 1e9))
	if p, ok := t.cache[key]; ok {
		return p.g0, p.g1, nil
	}
	ws := mat.SharedPool.Get(t.c.Order() + t.c.Inputs())
	g0, g1, err = t.gammas(d, ws)
	mat.SharedPool.Put(ws)
	if err != nil {
		return nil, nil, err
	}
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
