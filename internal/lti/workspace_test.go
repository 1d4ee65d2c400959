package lti

import (
	"math"
	"math/rand"
	"testing"

	"cpsdyn/internal/mat"
)

// augmentedReference and closedLoopReference are Augmented and ClosedLoop
// as they stood before AugmentedTo and ClosedLoopTo: block assembly and
// fresh matrices. The new forms must match them bit for bit.
func augmentedReference(d *Discrete) (abar, bbar *mat.Matrix) {
	n, m := d.Order(), d.Inputs()
	abar = mat.Block([][]*mat.Matrix{
		{d.Phi, d.Gamma1},
		{mat.New(m, n), mat.New(m, m)},
	})
	bbar = mat.Block([][]*mat.Matrix{
		{d.Gamma0},
		{mat.Identity(m)},
	})
	return abar, bbar
}

func closedLoopReference(d *Discrete, k *mat.Matrix) *mat.Matrix {
	abar, bbar := augmentedReference(d)
	return abar.Sub(bbar.Mul(k))
}

// The caller-held forms give the reference's matrices bit for bit, on
// random discretisations (signed zeros and subnormals among the entries)
// and gains, with one set of matrices reused per shape whatever they held.
func TestAugmentedToAndClosedLoopToMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	odd := []float64{0, math.Copysign(0, -1), 0x1p-1060, -1e300, 1}
	entry := func() float64 {
		if r.Intn(5) == 0 {
			return odd[r.Intn(len(odd))]
		}
		return r.NormFloat64()
	}
	fill := func(rows, cols int) *mat.Matrix {
		m := mat.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, entry())
			}
		}
		return m
	}
	held := map[[2]int][3]*mat.Matrix{}
	for trial := 0; trial < 2000; trial++ {
		n, m := 1+r.Intn(7), 1+r.Intn(2)
		d := &Discrete{Name: "random", Phi: fill(n, n), Gamma0: fill(n, m), Gamma1: fill(n, m), H: 0.02}
		k := fill(m, n+m)
		h, ok := held[[2]int{n, m}]
		if !ok {
			h = [3]*mat.Matrix{fill(n+m, n+m), fill(n+m, m), fill(n+m, n+m)}
			held[[2]int{n, m}] = h
		}
		wantA, wantB := augmentedReference(d)
		d.AugmentedTo(h[0], h[1])
		if !h[0].EqualBits(wantA) || !h[1].EqualBits(wantB) {
			t.Fatalf("trial %d: AugmentedTo differs from the block assembly", trial)
		}
		if err := d.ClosedLoopTo(h[2], k, h[0], h[1]); err != nil || !h[2].EqualBits(closedLoopReference(d, k)) {
			t.Fatalf("trial %d: ClosedLoopTo (%v) differs from the reference", trial, err)
		}
		if cl, err := d.ClosedLoop(k); err != nil || !cl.EqualBits(closedLoopReference(d, k)) {
			t.Fatalf("trial %d: ClosedLoop (%v) differs from the reference", trial, err)
		}
		if a, b := d.Augmented(); !a.EqualBits(wantA) || !b.EqualBits(wantB) {
			t.Fatalf("trial %d: Augmented differs from the block assembly", trial)
		}
	}
}
