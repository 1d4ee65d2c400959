// Package switching analyses the switched closed-loop dynamics of §III of
// the paper. An application rejects a disturbance first over ET
// communication (closed loop A1) and, after kwait samples, switches once to
// a TT slot (closed loop A2):
//
//	x1[k]        = A1^k · x0                      (before the switch, eq. 3)
//	x2[kwait, k] = A2^k · A1^kwait · x0           (after the switch,  eq. 4)
//
// The dwell time kdw(kwait) is the number of samples the TT loop needs to
// bring the norm back below the threshold Eth. Because ‖A1^k·x0‖ typically
// grows before it decays, kdw is NOT monotone in kwait — the paper's first
// contribution, which this package measures by exhaustive simulation.
package switching

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/pwl"
)

// System is one application's pair of switched closed loops on a shared
// (delay-augmented) state space.
type System struct {
	Name     string      // names the system in errors; "" when shared between applications
	A1       *mat.Matrix // ET closed-loop matrix (augmented)
	A2       *mat.Matrix // TT closed-loop matrix (augmented)
	X0       []float64   // canonical post-disturbance state (augmented)
	Eth      float64     // steady-state threshold on the plant sub-norm
	NormDims int         // leading components included in the norm; 0 = all
	H        float64     // sampling period in seconds
}

// Error is a failure of one switched system, rendered as
// "switching: <System>: <Err>". A system shared between applications is
// unnamed, and its errors then render without the name, so that whoever
// owns the failure can attach its own (core names the deriving app).
type Error struct {
	System string // the system's Name; "" for a shared system
	Err    error
}

func (e *Error) Error() string {
	if e.System == "" {
		return "switching: " + e.Err.Error()
	}
	return "switching: " + e.System + ": " + e.Err.Error()
}

// Unwrap exposes the cause, e.g. the context error of a cancelled walk.
func (e *Error) Unwrap() error { return e.Err }

func (s *System) errorf(format string, args ...any) error {
	return &Error{System: s.Name, Err: fmt.Errorf(format, args...)}
}

// validateLoops checks the loops' shapes and every input's finiteness and
// range. Their asymptotic stability (switching stability holds because the
// scheme switches at most once, §II-B of the paper) is checked by
// certifyStable.
func (s *System) validateLoops() error {
	n := s.A1.Rows()
	if s.A1.Cols() != n || s.A2.Rows() != n || s.A2.Cols() != n {
		return s.errorf("A1 (%d×%d) and A2 (%d×%d) must be square and equal-sized",
			s.A1.Rows(), s.A1.Cols(), s.A2.Rows(), s.A2.Cols())
	}
	return s.validateShared(n, s.A1.IsFinite() && s.A2.IsFinite(), "A1, A2")
}

// validateShared checks the inputs shared by the loops of order n: x0's
// length, that the loops (finite, named by loops in the error), x0, Eth
// and h are finite, the threshold, the period and NormDims.
func (s *System) validateShared(n int, finite bool, loops string) error {
	if len(s.X0) != n {
		return s.errorf("x0 has %d entries, want %d", len(s.X0), n)
	}
	if !finite || !mat.VecIsFinite(s.X0) {
		return s.errorf("%s and x0 must be finite", loops)
	}
	if !(s.Eth > 0) {
		return s.errorf("threshold Eth = %g must be positive", s.Eth)
	}
	if !(s.H > 0) {
		return s.errorf("sampling period %g must be positive", s.H)
	}
	if math.IsInf(s.Eth, 1) || math.IsInf(s.H, 1) {
		return s.errorf("threshold Eth = %g and sampling period %g must be finite", s.Eth, s.H)
	}
	if s.NormDims < 0 || s.NormDims > n {
		return s.errorf("NormDims %d outside [0, %d]", s.NormDims, n)
	}
	return nil
}

// validateStable checks the Schur stability of loop a: one QR eigenvalue
// solve. The walks run it only on a loop that has no certificate
// (certifyStable).
func (s *System) validateStable(a *mat.Matrix) error {
	stable, err := mat.IsSchurStable(a)
	if err != nil {
		return &Error{System: s.Name, Err: err}
	}
	if !stable {
		return s.errorf("closed loop is not Schur stable")
	}
	return nil
}

func (s *System) normDims() int {
	if s.NormDims <= 0 || s.NormDims > len(s.X0) {
		return len(s.X0)
	}
	return s.NormDims
}

// Norm returns the threshold norm ‖x‖ of a state (plant sub-norm).
//
//cpsdyn:allocfree called once per simulated step on the settle hot path
func (s *System) Norm(x []float64) float64 {
	return mat.VecNorm2(x[:s.normDims()])
}

// simSteps counts every closed-loop state-update (matrix–vector) step this
// package simulates, process-wide. It is a cheap progress gauge: tests and
// the cpsdynd /metrics endpoint use it to observe that cancelled derivations
// actually stop stepping instead of burning CPU in the background.
var simSteps atomic.Uint64

// SimSteps returns the cumulative number of simulated state-update steps.
func SimSteps() uint64 { return simSteps.Load() }

// countSteps adds n simulated steps to the process-wide counter and to the
// request trace tr (nil for an untraced walk).
//
//cpsdyn:allocfree called at every flush point of the settle hot path
func countSteps(tr *obs.Trace, n uint64) {
	simSteps.Add(n)
	tr.AddSimSteps(n)
}

// stepFlush is how many simulation steps run between context checks and
// counter flushes inside one settling run. At ~40 flops per step this is a
// sub-millisecond cancellation latency even on slow hardware.
const stepFlush = 4096

// scratch holds the two state buffers a settling simulation ping-pongs
// between, so stepping allocates nothing no matter the horizon.
type scratch struct{ cur, nxt []float64 }

func newScratch(n int) *scratch {
	return &scratch{cur: make([]float64, n), nxt: make([]float64, n)}
}

// errOverflow is settle's error for a walk whose state became NaN (an
// overflow to ±Inf followed by Inf − Inf or 0·Inf): NaN never becomes
// finite again, so the walk can never settle.
var errOverflow = errors.New("state overflowed to NaN")

// settle returns the first step index k such that the trajectory of a from
// x0 satisfies ‖x[j]‖ ≤ Eth for all j ∈ [k, horizon]. The state is stepped
// in sc's buffers (x0 may alias sc.cur); a nil ctx disables cancellation
// checks, a cancelled ctx aborts mid-run with its error. A non-finite norm
// counts as above Eth, and a NaN one ends the walk with errOverflow. It
// walks every step to the horizon: it is DwellSteps' uncertified
// reference walk, and the certified walks (walkLanes, walkOne) must give
// its (k, ok). Steps are counted in SimSteps and in ctx's trace.
//
//cpsdyn:allocfree DwellSteps walks every kwait of a reference sweep through it
func (s *System) settle(ctx context.Context, a *mat.Matrix, x0 []float64, horizon int, sc *scratch) (int, bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
	}
	tr := obs.FromContext(ctx)
	cur, nxt := sc.cur, sc.nxt
	copy(cur, x0)
	lastAbove := -1
	pending := 0 // steps not yet flushed to the counters
	for k := 0; k <= horizon; k++ {
		if nrm := s.Norm(cur); nrm > s.Eth {
			lastAbove = k
		} else if !(nrm <= s.Eth) {
			countSteps(tr, uint64(pending))
			return 0, false, errOverflow
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

// Workspace holds the buffers of one pure-mode walk: the loop's stop
// certificate, the power search's scratch and the walk's lane. A
// calibration search passes one to every probe, so a probe allocates
// nothing for its walk once the workspace has grown to the loop's order.
// The zero value is ready to use; a Workspace is not safe for concurrent
// use.
type Workspace struct{ buf []float64 }

// walkLen is the length of a pure-mode walk's buffers at order n: the
// certificate, the power search's scratch and walkOne's lane.
func walkLen(n int) int { return certLen(n) + certWorkLen(n) + 3*n }

// split returns ws's buffers for an order-n walk, carved from one backing
// array that grows only when an order needs more.
func (ws *Workspace) split(n int) (cert, work, lane []float64) {
	if len(ws.buf) < walkLen(n) {
		ws.buf = make([]float64, walkLen(n))
	}
	cl, wl := certLen(n), certWorkLen(n)
	return ws.buf[:cl], ws.buf[cl : cl+wl], ws.buf[cl+wl : walkLen(n)]
}

// walkError renders a failed settling walk of the named loop: an
// overflowed state names the loop, anything else is the context's
// cancellation.
func (s *System) walkError(loop string, err error) error {
	if errors.Is(err, errOverflow) {
		return s.errorf("%s: %w", loop, err)
	}
	return s.errorf("sampling cancelled: %w", err)
}

// overflowError renders an overflowed walk of the named loop as a *Error;
// any other error, or nil, passes through.
func (s *System) overflowError(loop string, err error) error {
	if errors.Is(err, errOverflow) {
		return s.walkError(loop, err)
	}
	return err
}

// ProbeSteps returns the pure-mode settling step count of loop a (A1 or
// A2 of s, or a loop of the same state space; a probe's System may carry
// only a): the paper's ξET or ξTT in samples, and a calibration probe's
// walk. It checks a's shape and finiteness and the inputs both loops
// share as SampleCurveWith checks them, then certifies a, and checks a's
// stability only when the certificate is refused (certifyStable), with
// SampleCurveWith's error for an unstable loop. The walk then runs in
// ws's buffers, stopped at a's certificate (walkOne). An overflowed walk
// fails with a *Error naming the loop as loop ("TT loop", say); a
// cancelled one returns ctx's error as is.
func (s *System) ProbeSteps(ctx context.Context, loop string, a *mat.Matrix, horizon int, ws *Workspace) (int, bool, error) {
	n := a.Rows()
	if a.Cols() != n {
		return 0, false, s.errorf("loop matrix (%d×%d) must be square", n, a.Cols())
	}
	if err := s.validateShared(n, a.IsFinite(), "the loop matrix"); err != nil {
		return 0, false, err
	}
	cert, work, lane := ws.split(n)
	c, err := s.certifyStable(ctx, a, horizon, work, cert)
	if err != nil {
		return 0, false, err
	}
	countRefusal(ctx, &c)
	k, ok, err := s.walkOne(ctx, a, &c, horizon, lane)
	return k, ok, s.overflowError(loop, err)
}

// DwellSteps returns kdw for a given kwait (both in samples): the settling
// step count of A2 started from A1^kwait·x0. It is the reference oracle
// for the certified walks: no certificate, every step to the horizon. The
// whole walk runs in one pair of scratch buffers, so the cost is
// independent of allocation no matter how large kwait and the horizon are.
// A walk that overflows never settles: (horizon, false).
func (s *System) DwellSteps(kwait, horizon int) (int, bool) {
	sc := newScratch(len(s.X0))
	copy(sc.cur, s.X0)
	for k := 0; k < kwait; k++ {
		s.A1.MulVecTo(sc.nxt, sc.cur)
		sc.cur, sc.nxt = sc.nxt, sc.cur
	}
	simSteps.Add(uint64(kwait))
	k, ok, err := s.settle(nil, s.A2, sc.cur, horizon, sc)
	if err != nil {
		return horizon, false
	}
	return k, ok
}

// Curve is a sampled dwell/wait relation together with the pure-mode
// response times, all in seconds.
type Curve struct {
	Samples []pwl.Point // (kwait, kdw) in seconds, one per sample step
	XiTT    float64     // response with pure TT communication
	XiET    float64     // response with pure ET communication
	H       float64     // sampling period
}

// SampleCurveOptions tunes the dwell-curve sampling.
type SampleCurveOptions struct {
	// Workers bounds the fan-out of the settling simulations' lockstep
	// chunks. 1 runs strictly sequentially; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	// The sampled curve is byte-identical for every worker count.
	Workers int
	// Horizon bounds each settling simulation; it must comfortably exceed
	// the slowest settling (checked stability guarantees existence). ≤ 0
	// selects 20000.
	Horizon int
	// Context cancels the sampling cooperatively; nil means no
	// cancellation. On expiry the error unwraps to ctx.Err().
	Context context.Context
}

// SampleCurveWith measures kdw(kwait) for every kwait from 0 up to the
// pure-ET settling time in two phases. A sequential prepass walks
// x_kwait = A1^kwait·x0 once (kET cheap matrix–vector products into one flat
// buffer); the fan-out then hands chunks of consecutive kwaits to a bounded
// worker pool, and each chunk walks its A2 settling simulations in
// lockstep. Every simulation performs the exact same float arithmetic as
// settle's in every configuration, so the curve is byte-identical for any
// worker count.
//
// It first checks the loops' shapes and every input (validateLoops), then
// the stability of A1 and of A2, in that order, taking the QR check only
// for a loop without a stop certificate: a certificate proves its loop
// Schur stable (certifyStable). A refused loop counts in CertRefusals only
// once both loops have passed, since only then does it walk.
func (s *System) SampleCurveWith(opts SampleCurveOptions) (*Curve, error) {
	if err := s.validateLoops(); err != nil {
		return nil, err
	}
	ctx := opts.Context
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = 20000
	}
	n := len(s.X0)
	// One power-search scratch serves both certificates, which sit in
	// front of it; the pure-mode walks' lane follows it.
	cl, wl := certLen(n), certWorkLen(n)
	buf := make([]float64, 2*cl+wl+3*n)
	work, lane := buf[2*cl:2*cl+wl], buf[2*cl+wl:]
	cert1, err := s.certifyStable(ctx, s.A1, horizon, work, buf[:cl])
	if err != nil {
		return nil, err
	}
	cert2, err := s.certifyStable(ctx, s.A2, horizon, work, buf[cl:2*cl])
	if err != nil {
		return nil, err
	}
	countRefusal(ctx, &cert1)
	countRefusal(ctx, &cert2)
	kET, ok, err := s.walkOne(ctx, s.A1, &cert1, horizon, lane)
	if err != nil {
		return nil, s.walkError("ET loop", err)
	}
	if !ok {
		return nil, s.errorf("ET loop did not settle within %d steps", horizon)
	}
	kTT, ok, err := s.walkOne(ctx, s.A2, &cert2, horizon, lane)
	if err != nil {
		return nil, s.walkError("TT loop", err)
	}
	if !ok {
		return nil, s.errorf("TT loop did not settle within %d steps", horizon)
	}
	// Prepass: the switch states x_kwait = A1^kwait·x0 for every kwait,
	// row kwait of one flat buffer. kET can be 0 when a user-constructed
	// system starts below its threshold; the curve is then the single
	// kwait = 0 endpoint appended below.
	states := make([]float64, kET*n)
	if kET > 0 {
		copy(states[:n], s.X0)
		for k := 1; k < kET; k++ {
			s.A1.MulVecTo(states[k*n:(k+1)*n], states[(k-1)*n:k*n])
		}
		countSteps(obs.FromContext(ctx), uint64(kET-1))
	}
	// Fan-out: the settling runs are independent. Chunks of laneChunk
	// consecutive kwaits go to the pool, and each chunk walks its switch
	// states in lockstep (lockstep.go).
	chunks := (kET + laneChunk - 1) / laneChunk
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	// One flat backing array carries every worker's pair of lane blocks
	// and its stop test's scratch — the same flat-buffer idiom as the
	// states prepass above — so the scratch cost is one allocation however
	// wide the pool is.
	lanes := laneChunk * n
	per := 2*lanes + n
	flat := make([]float64, workers*per)
	t := sumSqThreshold(s.Eth)
	kdw := make([]int, kET)
	err = conc.ForEachWorkerCtx(ctx, chunks, workers, func(w, c int) error {
		var idx [laneChunk]int
		var ss [laneChunk]float64
		lo, hi := c*laneChunk, min((c+1)*laneChunk, kET)
		for l := range hi - lo {
			idx[l] = lo + l
		}
		blk := flat[w*per : (w+1)*per]
		cur, nxt, ax := blk[:(hi-lo)*n], blk[lanes:lanes+(hi-lo)*n], blk[2*lanes:]
		copy(cur, states[lo*n:hi*n])
		cert := cert2 // a chunk's own copy keeps cert2 off the heap
		kwait, overflow, err := s.walkLanes(ctx, s.A2, cur, nxt, ax, ss[:hi-lo], idx[:hi-lo], kdw, horizon, t, &cert)
		switch {
		case err != nil:
			return err
		case kwait < 0:
			return nil
		case overflow:
			return s.walkError(fmt.Sprintf("TT loop from kwait=%d", kwait), errOverflow)
		}
		return s.errorf("TT loop did not settle from kwait=%d within %d steps", kwait, horizon)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, s.errorf("sampling cancelled: %w", err)
		}
		return nil, err
	}
	samples := make([]pwl.Point, 0, kET+1)
	for kwait := 0; kwait < kET; kwait++ {
		samples = append(samples, pwl.Point{
			Wait:  float64(kwait) * s.H,
			Dwell: float64(kdw[kwait]) * s.H,
		})
	}
	// At kwait = ξET the plant has settled under ET alone; the protocol
	// never takes the slot, so the dwell there is 0 by definition.
	samples = append(samples, pwl.Point{Wait: float64(kET) * s.H, Dwell: 0})
	return &Curve{
		Samples: samples,
		XiTT:    float64(kTT) * s.H,
		XiET:    float64(kET) * s.H,
		H:       s.H,
	}, nil
}

// IsNonMonotonic reports whether the sampled dwell curve has a genuine
// rising phase (some dwell sample exceeds the dwell at kwait = 0 by more
// than one sampling period), i.e. whether the paper's Fig.-3 effect occurs.
func (c *Curve) IsNonMonotonic() bool {
	if len(c.Samples) == 0 {
		return false
	}
	first := c.Samples[0].Dwell
	for _, p := range c.Samples[1:] {
		if p.Dwell > first+c.H/2 {
			return true
		}
	}
	return false
}

// PeakSample returns the sample with the largest dwell. An empty
// (user-constructed) curve yields the zero point rather than panicking;
// SampleCurveWith always produces at least one sample.
func (c *Curve) PeakSample() pwl.Point {
	if len(c.Samples) == 0 {
		return pwl.Point{}
	}
	best := c.Samples[0]
	for _, p := range c.Samples[1:] {
		if p.Dwell > best.Dwell {
			best = p
		}
	}
	return best
}

// FitModels builds the paper's three models from the sampled curve:
// the safe non-monotonic two-segment fit, the safe conservative monotonic
// fit and the UNSAFE simple monotonic line.
func (c *Curve) FitModels() (nonMono, conservative, simple *pwl.Model, err error) {
	nonMono, err = pwl.FitNonMonotonic(c.Samples, c.XiET)
	if err != nil {
		return nil, nil, nil, err
	}
	conservative, err = pwl.FitConservative(c.Samples, c.XiET)
	if err != nil {
		return nil, nil, nil, err
	}
	simple, err = pwl.SimpleMonotonic(c.XiTT, c.XiET)
	if err != nil {
		return nil, nil, nil, err
	}
	return nonMono, conservative, simple, nil
}
