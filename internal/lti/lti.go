// Package lti models the linear time-invariant control plants of the paper.
//
// Each control application Ci closes a loop around a continuous-time plant
//
//	ẋ = A·x + B·u,   y = C·x,
//
// sampled with period h and actuated after a sensor-to-actuator delay
// d ∈ [0, h]. Discretising with the delay split (Åström–Wittenmark) yields
// exactly the paper's eq. (1):
//
//	x[k+1] = Φ·x[k] + Γ0·u[k] + Γ1·u[k−1],   y[k] = C·x[k],
//
// with Φ = e^{Ah}, Γ0 = ∫₀^{h−d} e^{As} ds·B and Γ1 = e^{A(h−d)}·∫₀^{d} e^{As} ds·B.
package lti

import (
	"fmt"
	"math"

	"cpsdyn/internal/mat"
)

// Continuous is a continuous-time LTI plant ẋ = A·x + B·u, y = C·x.
type Continuous struct {
	Name string
	A    *mat.Matrix // n×n state matrix
	B    *mat.Matrix // n×m input matrix
	C    *mat.Matrix // p×n output matrix (may be nil for full-state plants)
}

// Order returns the state dimension n.
func (c *Continuous) Order() int { return c.A.Rows() }

// Inputs returns the input dimension m.
func (c *Continuous) Inputs() int { return c.B.Cols() }

// Validate checks shape consistency and that every entry is finite.
func (c *Continuous) Validate() error {
	if c.A == nil || c.B == nil {
		return fmt.Errorf("lti: plant %q: A and B must be set", c.Name)
	}
	if c.A.Rows() != c.A.Cols() {
		return fmt.Errorf("lti: plant %q: A is %d×%d, want square", c.Name, c.A.Rows(), c.A.Cols())
	}
	if c.B.Rows() != c.A.Rows() {
		return fmt.Errorf("lti: plant %q: B has %d rows, want %d", c.Name, c.B.Rows(), c.A.Rows())
	}
	if c.C != nil && c.C.Cols() != c.A.Rows() {
		return fmt.Errorf("lti: plant %q: C has %d cols, want %d", c.Name, c.C.Cols(), c.A.Rows())
	}
	for _, m := range []struct {
		name string
		m    *mat.Matrix
	}{{"A", c.A}, {"B", c.B}, {"C", c.C}} {
		if m.m != nil && !m.m.IsFinite() {
			return fmt.Errorf("lti: plant %q: %s has a NaN or infinite entry", c.Name, m.name)
		}
	}
	return nil
}

// Discrete is the sampled-data model of the paper's eq. (1).
type Discrete struct {
	Name   string
	Phi    *mat.Matrix // n×n
	Gamma0 *mat.Matrix // n×m, weight of u[k]
	Gamma1 *mat.Matrix // n×m, weight of u[k−1]
	C      *mat.Matrix // p×n or nil
	H      float64     // sampling period in seconds
	D      float64     // sensor-to-actuator delay in seconds, 0 ≤ D ≤ H
}

// Order returns the plant state dimension n.
func (d *Discrete) Order() int { return d.Phi.Rows() }

// Inputs returns the input dimension m.
func (d *Discrete) Inputs() int { return d.Gamma0.Cols() }

// Discretize samples the continuous plant with period h and constant
// sensor-to-actuator delay d (0 ≤ d ≤ h), both finite.
func Discretize(c *Continuous, h, d float64) (*Discrete, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Written so that NaN fails: a NaN d would otherwise take the
	// zero-delay branch below.
	if !(h > 0) {
		return nil, fmt.Errorf("lti: plant %q: sampling period %g must be positive", c.Name, h)
	}
	if math.IsInf(h, 1) {
		return nil, fmt.Errorf("lti: plant %q: sampling period %g must be finite", c.Name, h)
	}
	if !(d >= 0 && d <= h) {
		return nil, fmt.Errorf("lti: plant %q: delay %g outside [0, h=%g]", c.Name, d, h)
	}
	// One augmented exponential per evaluation point: exp([A B; 0 0]·t)
	// yields Φ(t) and Γ(t) together, and the semigroup split
	//
	//	Γ(h) = Γ(h−d) + Φ(h−d)·Γ(d)
	//
	// gives Γ1 = Φ(h−d)·Γ(d) = Γ(h) − Γ(h−d) directly, so the whole
	// delay-split model costs two evaluations (one when d = 0) instead of
	// the former three. The split integral itself: u[k−1] is held on
	// [0, d), u[k] on [d, h), so Γ0 = Γ(h−d).
	n, m := c.Order(), c.Inputs()
	ws := mat.SharedPool.Get(n + m)
	defer mat.SharedPool.Put(ws)
	phi := mat.New(n, n)
	gammaH := mat.New(n, m)
	if err := mat.ExpmIntegralTo(phi, gammaH, c.A, c.B, h, ws); err != nil {
		return nil, fmt.Errorf("lti: plant %q: %w", c.Name, err)
	}
	gamma0, gamma1 := gammaH, mat.New(n, m)
	if d > 0 {
		gamma0 = mat.New(n, m)
		phiHmD := mat.New(n, n) // Φ(h−d), not part of the model
		if err := mat.ExpmIntegralTo(phiHmD, gamma0, c.A, c.B, h-d, ws); err != nil {
			return nil, fmt.Errorf("lti: plant %q: %w", c.Name, err)
		}
		gammaH.SubTo(gamma1, gamma0)
	}
	cc := c.C
	if cc == nil {
		cc = mat.Identity(c.Order())
	}
	return &Discrete{
		Name:   c.Name,
		Phi:    phi,
		Gamma0: gamma0,
		Gamma1: gamma1,
		C:      cc,
		H:      h,
		D:      d,
	}, nil
}

// Augmented returns the delay-augmented state-space pair (Ā, B̄) on
// z = [x; u[k−1]]:
//
//	z[k+1] = [Φ Γ1; 0 0]·z[k] + [Γ0; I]·u[k].
//
// The augmentation is used even for d = 0 (Γ1 = 0) so that the ET and TT
// closed loops of one application share a state space and can be switched.
// It is AugmentedTo into fresh matrices.
func (d *Discrete) Augmented() (abar, bbar *mat.Matrix) {
	n, m := d.Order(), d.Inputs()
	abar, bbar = mat.New(n+m, n+m), mat.New(n+m, m)
	d.AugmentedTo(abar, bbar)
	return abar, bbar
}

// AugmentedTo writes Augmented's pair into abar ((n+m)×(n+m)) and bbar
// ((n+m)×m), overwriting every entry: a caller that builds many loops of
// one plant (a calibration search) reuses its matrices.
func (d *Discrete) AugmentedTo(abar, bbar *mat.Matrix) {
	n, m := d.Order(), d.Inputs()
	if abar.Rows() != n+m || abar.Cols() != n+m || bbar.Rows() != n+m || bbar.Cols() != m {
		panic(fmt.Sprintf("lti: AugmentedTo into %d×%d and %d×%d, want %d×%d and %d×%d",
			abar.Rows(), abar.Cols(), bbar.Rows(), bbar.Cols(), n+m, n+m, n+m, m))
	}
	abar.Zero()
	abar.SetSubmatrix(0, 0, d.Phi)
	abar.SetSubmatrix(0, n, d.Gamma1)
	bbar.Zero()
	bbar.SetSubmatrix(0, 0, d.Gamma0)
	for i := 0; i < m; i++ {
		bbar.Set(n+i, i, 1)
	}
}

// ClosedLoop returns the augmented closed-loop matrix Ā − B̄·K for a
// state-feedback gain K (m×(n+m)) acting on z = [x; u[k−1]]. It is
// ClosedLoopTo on a fresh augmented pair and result.
func (d *Discrete) ClosedLoop(k *mat.Matrix) (*mat.Matrix, error) {
	abar, bbar := d.Augmented()
	cl := mat.New(abar.Rows(), abar.Cols())
	if err := d.ClosedLoopTo(cl, k, abar, bbar); err != nil {
		return nil, err
	}
	return cl, nil
}

// ClosedLoopTo writes Ā − B̄·K into dst ((n+m)×(n+m)), given d's augmented
// pair abar, bbar as AugmentedTo writes it; dst must not alias abar, bbar
// or k. It forms B̄·K in dst and subtracts it from Ā there, without
// allocating.
func (d *Discrete) ClosedLoopTo(dst, k, abar, bbar *mat.Matrix) error {
	n, m := d.Order(), d.Inputs()
	if k.Rows() != m || k.Cols() != n+m {
		return fmt.Errorf("lti: plant %q: gain is %d×%d, want %d×%d",
			d.Name, k.Rows(), k.Cols(), m, n+m)
	}
	bbar.MulTo(dst, k)
	abar.SubTo(dst, dst)
	return nil
}
