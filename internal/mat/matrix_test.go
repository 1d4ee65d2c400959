package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d, want 2×3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %g, want 4.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value At(0,0) = %g, want 0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows content wrong: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	d := Diag(1, 1, 1)
	if !i3.EqualTol(d, 0) {
		t.Fatal("Identity(3) != Diag(1,1,1)")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	sum := a.Add(b)
	want := FromRows([][]float64{{5, 5}, {5, 5}})
	if !sum.EqualTol(want, 0) {
		t.Fatalf("Add = %v", sum)
	}
	if !sum.Sub(b).EqualTol(a, 0) {
		t.Fatal("Sub(Add(a,b), b) != a")
	}
	if !a.Scale(2).EqualTol(a.Add(a), 0) {
		t.Fatal("Scale(2) != a+a")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !got.EqualTol(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", got)
	}
}

func TestMulVecTo(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	v := []float64{5, 6}
	a.MulVecTo(dst, v)
	if dst[0] != 17 || dst[1] != 39 {
		t.Fatalf("MulVecTo = %v, want [17 39]", dst)
	}
	if n := testing.AllocsPerRun(100, func() { a.MulVecTo(dst, v) }); n != 0 {
		t.Fatalf("MulVecTo allocates %g times, want 0", n)
	}
	mustPanic(t, "dst length", func() { a.MulVecTo(make([]float64, 3), v) })
	mustPanic(t, "v length", func() { a.MulVecTo(dst, []float64{1}) })
}

// mustPanic asserts fn panics; label names the case in failures.
func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	fn()
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Fatalf("T = %v", at)
	}
	if !at.T().EqualTol(a, 0) {
		t.Fatal("double transpose != original")
	}
}

func TestPow(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {0, 1}})
	p := a.Pow(5)
	if p.At(0, 1) != 5 {
		t.Fatalf("Pow(5) upper-right = %g, want 5", p.At(0, 1))
	}
	if !a.Pow(0).EqualTol(Identity(2), 0) {
		t.Fatal("Pow(0) != I")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := a.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %g, want 6", got)
	}
	if got := a.NormInf(); got != 7 {
		t.Fatalf("NormInf = %g, want 7", got)
	}
	if got := a.NormFrob(); math.Abs(got-math.Sqrt(30)) > 1e-14 {
		t.Fatalf("NormFrob = %g, want sqrt(30)", got)
	}
}

func TestSliceAndSetSubmatrix(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.EqualTol(want, 0) {
		t.Fatalf("Slice = %v", s)
	}
	b := New(3, 3)
	b.SetSubmatrix(1, 1, FromRows([][]float64{{9, 9}, {9, 9}}))
	if b.At(1, 1) != 9 || b.At(2, 2) != 9 || b.At(0, 0) != 0 {
		t.Fatalf("SetSubmatrix = %v", b)
	}
}

func TestBlock(t *testing.T) {
	a := Identity(2)
	b := New(2, 1)
	c := New(1, 2)
	d := Identity(1)
	m := Block([][]*Matrix{{a, b}, {c, d}})
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("Block shape %d×%d", m.Rows(), m.Cols())
	}
	if !m.EqualTol(Identity(3), 0) {
		t.Fatalf("Block = %v, want I3", m)
	}
}

func TestVecOps(t *testing.T) {
	a := []float64{3, 4}
	if got := VecNorm2(a); got != 5 {
		t.Fatalf("VecNorm2 = %g", got)
	}
	if got := VecAdd(a, []float64{1, 1}); got[0] != 4 || got[1] != 5 {
		t.Fatalf("VecAdd = %v", got)
	}
	if got := VecSub(a, []float64{1, 1}); got[0] != 2 || got[1] != 3 {
		t.Fatalf("VecSub = %v", got)
	}
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a, b := randomMatrix(r, n), randomMatrix(r, n)
		left := a.Mul(b).T()
		right := b.T().Mul(a.T())
		return left.EqualTol(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication is associative for small random matrices.
func TestPropMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a, b, c := randomMatrix(r, n), randomMatrix(r, n), randomMatrix(r, n)
		return a.Mul(b).Mul(c).EqualTol(a.Mul(b.Mul(c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pow(k) agrees with repeated Mul.
func TestPropPow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		k := r.Intn(6)
		a := randomMatrix(r, n).Scale(0.5)
		want := Identity(n)
		for i := 0; i < k; i++ {
			want = want.Mul(a)
		}
		return a.Pow(k).EqualTol(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
