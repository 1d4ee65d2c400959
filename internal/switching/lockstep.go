package switching

import (
	"context"
	"math"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
)

// Lockstep walks.
//
// Every kwait of a curve walks the same loop matrix A2, each from its own
// switch state. SampleCurveWith hands the kwaits to the pool in chunks of
// laneChunk consecutive ones, and a chunk walks its states together: at
// each step it tests every live state (threshold, then certificate),
// retires the ones whose walk ended, and steps the rest in one batch
// (mat.MulVecsTo: four states per pass over A2's rows and the one to three
// left over singly, or, at order 3, every state with A2's nine entries in
// registers). Each state's dot products keep MulVecTo's order from a +0
// seed, so every walk is bit-identical to settle's; only the loads of A2
// and the loop overhead are shared.
//
// The threshold test needs no square root. A correctly rounded square
// root is monotone, so with t the largest float64 whose root is ≤ Eth,
// ‖x‖ > Eth exactly when the sum of squares under the root exceeds t; a
// NaN sum fails both comparisons, as a NaN norm does, and +Inf counts as
// above. settle and DwellSteps keep Norm, so the reference walks stay
// independent of this test.

// laneChunk is how many consecutive kwaits one lockstep walk carries.
const laneChunk = 16

// sumSqThreshold returns the largest float64 t with math.Sqrt(t) ≤ eth,
// for eth > 0. It starts from eth² (MaxFloat64 when that overflows) and
// moves by single ULPs, since the rounded square is within a few of t.
func sumSqThreshold(eth float64) float64 {
	t := math.Min(eth*eth, math.MaxFloat64)
	for t > 0 && math.Sqrt(t) > eth {
		t = math.Nextafter(t, 0)
	}
	for t < math.MaxFloat64 {
		next := math.Nextafter(t, math.Inf(1))
		if math.Sqrt(next) > eth {
			break
		}
		t = next
	}
	return t
}

// sumSq is the sum of squares under mat.VecNorm2's square root, summed in
// the same order from the same +0.
//
//cpsdyn:allocfree called for every live lane on every lockstep step
func sumSq(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// walkLanes walks the lanes of one chunk in lockstep on loop matrix a.
// Lane l's state is cur[l*n:(l+1)*n] and its kwait
// idx[l]; nxt is as long as cur. Every lane follows settle's rules with
// certificate cert and threshold t (sumSqThreshold(Eth)): kdw[kwait]
// holds the lane's last above-threshold step while it walks and its
// settling step once it stops. A lane that cannot settle — its state
// overflowed to NaN, or it is still above Eth at the horizon — stops
// there; walkLanes returns the lowest such kwait (−1 when none) and
// whether it overflowed. Lanes step and count in SimSteps and ctx's trace
// exactly as settle would; ctx (nil: never) is checked before the first
// step and every stepFlush lane-steps, and its error ends the walk.
//
//cpsdyn:allocfree the lockstep kernel under SampleCurveWith; one chunk walks thousands of lane-steps
func (s *System) walkLanes(ctx context.Context, a *mat.Matrix, cur, nxt []float64, idx, kdw []int, horizon int, t float64, cert *certificate) (fail int, overflow bool, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return -1, false, err
		}
	}
	tr := obs.FromContext(ctx)
	n, d := len(s.X0), s.normDims()
	live := len(idx)
	for _, kw := range idx {
		kdw[kw] = -1
	}
	fail = -1
	pending := 0 // lane-steps not yet flushed to the counters
	for k := 0; live > 0; k++ {
		for l := 0; l < live; {
			x := cur[l*n : (l+1)*n]
			kw := idx[l]
			if ss := sumSq(x[:d]); ss > t {
				kdw[kw] = k
				l++
				continue
			} else if !(ss <= t) {
				if fail < 0 || kw < fail {
					fail, overflow = kw, true
				}
			} else if cert.holds(x) {
				kdw[kw]++
			} else {
				l++
				continue
			}
			// The walk of lane l stopped: the last live lane takes its
			// place, and is tested at this step in its turn.
			live--
			copy(x, cur[live*n:(live+1)*n])
			idx[l] = idx[live]
		}
		if k == horizon {
			for _, kw := range idx[:live] {
				if kdw[kw] < horizon {
					kdw[kw]++
				} else if fail < 0 || kw < fail {
					fail, overflow = kw, false
				}
			}
			break
		}
		a.MulVecsTo(nxt[:live*n], cur[:live*n])
		cur, nxt = nxt, cur
		if pending += live; pending >= stepFlush {
			countSteps(tr, uint64(pending))
			pending = 0
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return -1, false, err
				}
			}
		}
	}
	countSteps(tr, uint64(pending))
	return fail, overflow, nil
}
