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
// and the loop overhead are shared. The kernel also hands back each new
// state's threshold sum of squares, formed as it writes the state, so the
// threshold test reads one number per lane instead of reloading the state.
//
// The threshold test needs no square root. A correctly rounded square
// root is monotone, so with t the largest float64 whose root is ≤ Eth,
// ‖x‖ > Eth exactly when the sum of squares under the root exceeds t; a
// NaN sum fails both comparisons, as a NaN norm does, and +Inf counts as
// above. The pure-mode walks (walkOne) are one-lane walks of the same
// kernel. settle and DwellSteps keep Norm, so the reference walk stays
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
// the same order from the same +0 (as mat.MulVecsTo sums a product's).
//
//cpsdyn:allocfree called for each starting state of a lockstep chunk
func sumSq(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// walkLanes walks the lanes of one chunk in lockstep on loop matrix a.
// Lane l's state is cur[l*n:(l+1)*n], its threshold sum of squares ss[l]
// and its kwait idx[l]; nxt is as long as cur, ss as idx (walkLanes
// fills it), and ax (n entries) is the stop test's scratch. Every lane
// follows settle's rules, stopped by certificate cert, with threshold t
// (sumSqThreshold(Eth)): kdw[kwait]
// holds the lane's last above-threshold step while it walks and its
// settling step once it stops. A lane that cannot settle — its state
// overflowed to NaN, or it is still above Eth at the horizon — stops
// there; walkLanes returns the lowest such kwait (−1 when none) and
// whether it overflowed. Lanes step and count in SimSteps and ctx's trace
// exactly as settle would; ctx (nil: never) is checked before the first
// step and every stepFlush lane-steps, and its error ends the walk.
//
//cpsdyn:allocfree the lockstep kernel under SampleCurveWith; one chunk walks thousands of lane-steps
func (s *System) walkLanes(ctx context.Context, a *mat.Matrix, cur, nxt, ax, ss []float64, idx, kdw []int, horizon int, t float64, cert *certificate) (fail int, overflow bool, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return -1, false, err
		}
	}
	tr := obs.FromContext(ctx)
	n, d := len(s.X0), s.normDims()
	live := len(idx)
	for l, kw := range idx {
		kdw[kw] = -1
		ss[l] = sumSq(cur[l*n : l*n+d])
	}
	fail = -1
	pending := 0 // lane-steps not yet flushed to the counters
	for k := 0; live > 0; k++ {
		for l := 0; l < live; {
			if q := ss[l]; q > t {
				kdw[idx[l]] = k
				l++
				continue
			} else if !(q <= t) {
				if kw := idx[l]; fail < 0 || kw < fail {
					fail, overflow = kw, true
				}
			} else if cert.holds(cur[l*n:(l+1)*n], ax) {
				kdw[idx[l]]++
			} else {
				l++
				continue
			}
			// The walk of lane l stopped: the last live lane takes its
			// place, and is tested at this step in its turn.
			live--
			copy(cur[l*n:(l+1)*n], cur[live*n:(live+1)*n])
			ss[l], idx[l] = ss[live], idx[live]
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
		a.MulVecsTo(nxt[:live*n], cur[:live*n], ss[:live], d)
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

// walkOne is the certified pure-mode walk of loop a from X0: walkLanes
// with one lane, whose buffers are lane's 3n entries (state, next state,
// the stop test's scratch). It returns settle's (k, ok, err): the first
// step from which the threshold norm stays at most Eth, false with the
// horizon when the state is still above Eth there, and errOverflow when
// the state became NaN. Its steps count in SimSteps and in ctx's trace.
//
//cpsdyn:allocfree every calibration probe walks one loop through it
func (s *System) walkOne(ctx context.Context, a *mat.Matrix, cert *certificate, horizon int, lane []float64) (int, bool, error) {
	n := len(s.X0)
	cur, nxt, ax := lane[:n], lane[n:2*n], lane[2*n:3*n]
	copy(cur, s.X0)
	var ss [1]float64
	var idx, kdw [1]int
	fail, overflow, err := s.walkLanes(ctx, a, cur, nxt, ax, ss[:], idx[:], kdw[:], horizon, sumSqThreshold(s.Eth), cert)
	switch {
	case err != nil:
		return 0, false, err
	case fail < 0:
		return kdw[0], true, nil
	case overflow:
		return 0, false, errOverflow
	}
	return horizon, false, nil
}
