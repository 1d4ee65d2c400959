package mat

import (
	"math"
	"math/rand"
	"testing"
)

// offDiagonalMass is Σ_{i≠j} |m_ij|, the quantity balancing decreases.
func offDiagonalMass(m *Matrix) float64 {
	s := 0.0
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i != j {
				s += math.Abs(m.data[i*m.cols+j])
			}
		}
	}
	return s
}

// BalanceTo must be an exact similarity transform by a power-of-two
// diagonal that never raises the off-diagonal mass, in place or not.
func TestPropBalanceToIsExactSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		b := randMatrix(r, n, n)
		a := New(n, n)
		for i := 0; i < n; i++ {
			si := math.Pow(10, -6+12*r.Float64())
			for j := 0; j < n; j++ {
				sj := math.Pow(10, -6+12*r.Float64())
				a.data[i*n+j] = b.data[i*n+j] * si / sj
			}
		}
		dst, d := New(n, n), make([]float64, n)
		a.BalanceTo(dst, d)
		for i, v := range d {
			if frac, _ := math.Frexp(v); frac != 0.5 {
				t.Fatalf("n=%d: scale %d = %g is not a power of two", n, i, v)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if want := a.data[i*n+j] * d[j] / d[i]; math.Float64bits(dst.data[i*n+j]) != math.Float64bits(want) {
					t.Fatalf("n=%d: dst[%d,%d] = %g, want a·d_j/d_i = %g", n, i, j, dst.data[i*n+j], want)
				}
			}
		}
		// Each accepted step shrinks row i's plus column i's off-diagonal
		// mass, the only entries it changes, so the total never grows.
		if offDiagonalMass(dst) > offDiagonalMass(a) {
			t.Fatalf("n=%d: balancing raised the off-diagonal mass from %g to %g", n, offDiagonalMass(a), offDiagonalMass(dst))
		}
		// In place gives the same bits.
		in := a.Clone()
		d2 := make([]float64, n)
		in.BalanceTo(in, d2)
		bitsEqual(t, in, dst, "BalanceTo in place")
	}
}

// A matrix similar to a well-scaled one by a wild diagonal comes back
// within a small factor of the well-scaled norm.
func TestBalanceToUndoesDiagonalScaling(t *testing.T) {
	a := FromRows([][]float64{
		{0.5, 1e6, 0},
		{1e-6, 0.4, 1e-3},
		{0, 1e3, 0.3},
	})
	dst, d := New(3, 3), make([]float64, 3)
	a.BalanceTo(dst, d)
	if got := dst.NormInf(); got > 4 {
		t.Fatalf("balanced ‖·‖∞ = %g (scales %v), want ≤ 4 from %g", got, d, a.NormInf())
	}
}

func TestBalanceToAndWrapAllocFree(t *testing.T) {
	a := FromRows([][]float64{{0.9, 100}, {0.001, 0.5}})
	buf := make([]float64, 4)
	d := make([]float64, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		dst := Wrap(2, 2, buf)
		a.BalanceTo(dst, d)
	}); allocs != 0 {
		t.Fatalf("Wrap + BalanceTo allocate %g times, want 0", allocs)
	}
	w := Wrap(2, 2, buf)
	w.Set(1, 0, 7)
	if buf[2] != 7 {
		t.Fatalf("Wrap copied its data: buf = %v", buf)
	}
}
