package core

import (
	"math"

	"cpsdyn/internal/mat"
)

// appSnapshot deep-copies the Application fields a derivation reads.
// DeriveFleetInto records one in every result it derives and serves that
// result again, for the same *Application, only while the snapshot still
// matches (a pointer comparison plus a bit-exact field comparison: no
// hashing, no allocation, no lock). Later mutations of the live struct (or
// of the matrices it shares) are therefore detected instead of silently
// serving stale artefacts. The snapshot is deliberately bit-exact
// (math.Float64bits) to mirror the central cache's key discipline: any
// mutation, however small, forces a full re-derivation. R, Deadline and
// FrameID do not shape the Derived value — it reaches them through the
// live App pointer — but they gate Validate, so they are snapshotted too:
// mutating one re-runs the full path including validation.
type appSnapshot struct {
	name                     string
	plantName                string
	plantA, plantB, plantC   *mat.Matrix
	h, delayTT, delayET, eth float64
	x0                       []float64
	r, deadline              float64
	frameID                  int
	polesTT, polesET         []complex128
	qtt, rtt, qet, ret       *mat.Matrix
}

func cloneMatrix(m *mat.Matrix) *mat.Matrix {
	if m == nil {
		return nil
	}
	return m.Clone()
}

func snapshotApp(a *Application) *appSnapshot {
	return &appSnapshot{
		name:      a.Name,
		plantName: a.Plant.Name,
		plantA:    cloneMatrix(a.Plant.A),
		plantB:    cloneMatrix(a.Plant.B),
		plantC:    cloneMatrix(a.Plant.C),
		h:         a.H,
		delayTT:   a.DelayTT,
		delayET:   a.DelayET,
		eth:       a.Eth,
		x0:        append([]float64(nil), a.X0...),
		r:         a.R,
		deadline:  a.Deadline,
		frameID:   a.FrameID,
		polesTT:   append([]complex128(nil), a.PolesTT...),
		polesET:   append([]complex128(nil), a.PolesET...),
		qtt:       cloneMatrix(a.QTT),
		rtt:       cloneMatrix(a.RTT),
		qet:       cloneMatrix(a.QET),
		ret:       cloneMatrix(a.RET),
	}
}

// matEqualBits compares two possibly-nil matrices bit-exactly.
//
//cpsdyn:allocfree probe on the warm fleet sweep; TestDeriveFleetWarmZeroAlloc pins the whole sweep
func matEqualBits(a, b *mat.Matrix) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.EqualBits(b)
}

//cpsdyn:allocfree probe on the warm fleet sweep
func floatEqualBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

//cpsdyn:allocfree probe on the warm fleet sweep
func floatsEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

//cpsdyn:allocfree probe on the warm fleet sweep
func polesEqualBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(real(v)) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// matches reports whether the Application still looks exactly like it did
// when the snapshot was taken. Scalar fields compare by math.Float64bits,
// not ==: the central cache keys (CacheKey/keyFloat) distinguish +0 from
// −0 bit-exactly, so a snapshot that equated them would serve the stale
// derivation while the central cache — and the disk store addressed by
// those keys — treat the mutated field as a different key.
// (NaN inputs never reach a successful derivation, so bitwise comparison
// only tightens the check.)
//
//cpsdyn:allocfree the warm-slot probe DeriveFleetInto sweeps once per app
func (s *appSnapshot) matches(a *Application) bool {
	return a.Plant != nil &&
		s.name == a.Name &&
		s.plantName == a.Plant.Name &&
		floatEqualBits(s.h, a.H) && floatEqualBits(s.delayTT, a.DelayTT) &&
		floatEqualBits(s.delayET, a.DelayET) &&
		floatEqualBits(s.eth, a.Eth) &&
		floatEqualBits(s.r, a.R) && floatEqualBits(s.deadline, a.Deadline) &&
		s.frameID == a.FrameID &&
		matEqualBits(s.plantA, a.Plant.A) &&
		matEqualBits(s.plantB, a.Plant.B) &&
		matEqualBits(s.plantC, a.Plant.C) &&
		floatsEqualBits(s.x0, a.X0) &&
		polesEqualBits(s.polesTT, a.PolesTT) &&
		polesEqualBits(s.polesET, a.PolesET) &&
		matEqualBits(s.qtt, a.QTT) &&
		matEqualBits(s.rtt, a.RTT) &&
		matEqualBits(s.qet, a.QET) &&
		matEqualBits(s.ret, a.RET)
}
