package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix returns an r×c matrix with standard-normal entries.
func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = r.NormFloat64()
	}
	return m
}

// naiveMulTo is the reference product in exactly the generic accumulation
// order: zero seed, then k-ascending partial sums. The unrolled kernels
// must be byte-identical to it, including the sign of zero.
func naiveMulTo(dst, a, b *Matrix) {
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.cols+k] * b.data[k*b.cols+j]
			}
			dst.data[i*b.cols+j] = s
		}
	}
}

func bitsEqual(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: entry %d = %g (bits %016x), want %g (bits %016x)",
				what, i, got.data[i], math.Float64bits(got.data[i]),
				want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

// TestPropMulToMatchesMul pins the unrolled small-n kernels (and the
// generic fallback) byte-identical to the reference accumulation order,
// for square orders 1..8 and rectangular shapes, including entries where
// the sign of zero could diverge.
func TestPropMulToMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 50; trial++ {
			a := randMatrix(r, n, n)
			b := randMatrix(r, n, n)
			if trial%5 == 0 {
				// Sprinkle signed zeros and exact cancellations.
				a.data[r.Intn(len(a.data))] = math.Copysign(0, -1)
				b.data[r.Intn(len(b.data))] = 0
			}
			want := New(n, n)
			naiveMulTo(want, a, b)
			got := New(n, n)
			a.MulTo(got, b)
			bitsEqual(t, got, want, "MulTo square")
			if got2 := a.Mul(b); !got2.EqualBits(want) {
				t.Fatalf("Mul wrapper diverges from MulTo at n=%d", n)
			}
		}
	}
	// Rectangular shapes take the generic loop; hold them to the same order.
	for trial := 0; trial < 50; trial++ {
		ar, ac, bc := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(r, ar, ac)
		b := randMatrix(r, ac, bc)
		want := New(ar, bc)
		naiveMulTo(want, a, b)
		got := New(ar, bc)
		a.MulTo(got, b)
		bitsEqual(t, got, want, "MulTo rectangular")
	}
}

// TestPropMulVecToMatchesNaive pins the unrolled matrix–vector kernels to
// the reference dot-product order for every column count with a fast path.
func TestPropMulVecToMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for c := 1; c <= 8; c++ {
		for trial := 0; trial < 50; trial++ {
			rows := 1 + r.Intn(8)
			m := randMatrix(r, rows, c)
			v := make([]float64, c)
			for i := range v {
				v[i] = r.NormFloat64()
			}
			want := make([]float64, rows)
			for i := 0; i < rows; i++ {
				var s float64
				for j := 0; j < c; j++ {
					s += m.data[i*c+j] * v[j]
				}
				want[i] = s
			}
			got := make([]float64, rows)
			m.MulVecTo(got, v)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("cols=%d rows=%d: entry %d = %g, want %g", c, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPropMulVecsToMatchesMulVecTo pins the batch kernel, generic and
// unrolled, to MulVecTo bit for bit, and each of its sums of squares to
// the sum under VecNorm2's square root (in order, from +0) over every
// leading block of rows: square orders 1..8 and rectangular shapes,
// batches of 0..9 vectors (whole passes of four and the singles left
// over). Every other trial draws plain normal entries, whose sums round
// differently in any other order; the rest mix in signed zeros,
// subnormals and huge and tiny values.
func TestPropMulVecsToMatchesMulVecTo(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	plain := false
	awkward := func() float64 {
		if plain {
			return r.NormFloat64()
		}
		switch r.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.Float64frombits(r.Uint64()&(1<<52-1)) * float64(1-2*r.Intn(2)) // subnormal
		case 3:
			return r.NormFloat64() * math.Pow(2, float64(r.Intn(2000)-1000))
		}
		return r.NormFloat64()
	}
	for trial := 0; trial < 4000; trial++ {
		rows, cols := 1+trial%8, 1+trial%8
		if trial%5 == 4 {
			rows, cols = 1+r.Intn(8), 1+r.Intn(8)
		}
		k := r.Intn(10)
		d := r.Intn(rows + 1)
		plain = trial%2 == 1
		m := New(rows, cols)
		for i := range m.data {
			m.data[i] = awkward()
		}
		v := make([]float64, k*cols)
		for i := range v {
			v[i] = awkward()
		}
		want := make([]float64, k*rows)
		wantSums := make([]float64, k)
		for q := 0; q < k; q++ {
			y := want[q*rows : (q+1)*rows]
			m.MulVecTo(y, v[q*cols:(q+1)*cols])
			s := 0.0
			for _, x := range y[:d] {
				s += x * x
			}
			wantSums[q] = s
		}
		got := make([]float64, k*rows)
		gotSums := make([]float64, k)
		m.MulVecsTo(got, v, gotSums, d)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d×%d, %d vectors: entry %d = %g (bits %016x), MulVecTo %g (bits %016x)\nm = %v v = %v",
					rows, cols, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), m, v)
			}
		}
		for q := range wantSums {
			if math.Float64bits(gotSums[q]) != math.Float64bits(wantSums[q]) {
				t.Fatalf("%d×%d, %d vectors, d = %d: sum %d = %g (bits %016x), want %g (bits %016x)\nm = %v v = %v",
					rows, cols, k, d, q, gotSums[q], math.Float64bits(gotSums[q]), wantSums[q], math.Float64bits(wantSums[q]), m, v)
			}
			if d == rows && math.Float64bits(math.Sqrt(gotSums[q])) != math.Float64bits(VecNorm2(want[q*rows:(q+1)*rows])) {
				t.Fatalf("%d×%d: √sum %d differs from VecNorm2", rows, cols, q)
			}
		}
	}
}

// TestPropExpmToMatchesExpm holds the workspace exponential (with a reused,
// dirty workspace) byte-identical to the allocating wrapper for orders 1..8.
func TestPropExpmToMatchesExpm(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for n := 1; n <= 8; n++ {
		ws := NewExpmWorkspace(n)
		for trial := 0; trial < 25; trial++ {
			a := randMatrix(r, n, n)
			a.ScaleTo(a, math.Pow(2, float64(r.Intn(8)-4))) // vary the squaring count
			want, err := Expm(a)
			if err != nil {
				t.Fatal(err)
			}
			got := New(n, n)
			if err := ExpmTo(got, a, ws); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, want, "ExpmTo")
		}
	}
}

// TestPropSolveToMatchesSolve holds the workspace LU solve byte-identical
// to the allocating wrapper, for matrix and vector right-hand sides.
func TestPropSolveToMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		f := NewLU(n)
		for trial := 0; trial < 25; trial++ {
			a := randMatrix(r, n, n)
			for i := 0; i < n; i++ { // diagonally dominate away from singularity
				a.data[i*n+i] += float64(n)
			}
			b := randMatrix(r, n, 1+r.Intn(4))
			want, err := Solve(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Factor(a); err != nil {
				t.Fatal(err)
			}
			got := New(b.rows, b.cols)
			f.SolveTo(got, b)
			bitsEqual(t, got, want, "SolveTo")

			v := b.Col(0)
			wantV, err := SolveVec(a, v)
			if err != nil {
				t.Fatal(err)
			}
			gotV := make([]float64, n)
			f.SolveVecTo(gotV, v)
			for i := range wantV {
				if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
					t.Fatalf("SolveVecTo n=%d entry %d = %g, want %g", n, i, gotV[i], wantV[i])
				}
			}
		}
	}
}

// TestExpmIntegralToMatchesExpmIntegral pins the workspace form against the
// allocating wrapper.
func TestExpmIntegralToMatchesExpmIntegral(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 1; n <= 5; n++ {
		for m := 1; m <= 2; m++ {
			ws := NewExpmWorkspace(n + m)
			a := randMatrix(r, n, n)
			b := randMatrix(r, n, m)
			wantPhi, wantGamma, err := ExpmIntegral(a, b, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			phi, gamma := New(n, n), New(n, m)
			if err := ExpmIntegralTo(phi, gamma, a, b, 0.02, ws); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, phi, wantPhi, "ExpmIntegralTo phi")
			bitsEqual(t, gamma, wantGamma, "ExpmIntegralTo gamma")
		}
	}
}

// TestExpmToAllocFree pins the zero-steady-state-allocation contract of the
// workspace exponential, the heart of this package's performance story.
func TestExpmToAllocFree(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		a := benchMatrix(n)
		ws := NewExpmWorkspace(n)
		dst := New(n, n)
		if err := ExpmTo(dst, a, ws); err != nil { // warm-up + error check
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := ExpmTo(dst, a, ws); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("ExpmTo n=%d allocates %.1f per run, want 0", n, allocs)
		}
	}
}

// TestSolveToAllocFree pins Factor+SolveTo as allocation-free.
func TestSolveToAllocFree(t *testing.T) {
	n := 4
	a := benchMatrix(n)
	b := benchMatrix(n)
	f := NewLU(n)
	dst := New(n, n)
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		f.SolveTo(dst, b)
	}); allocs != 0 {
		t.Fatalf("Factor+SolveTo allocates %.1f per run, want 0", allocs)
	}
}

// TestExpmIntegralToAllocFree pins the discretisation kernel as
// allocation-free.
func TestExpmIntegralToAllocFree(t *testing.T) {
	a := benchMatrix(3)
	b := New(3, 1)
	b.data[2] = 1
	ws := NewExpmWorkspace(4)
	phi, gamma := New(3, 3), New(3, 1)
	if err := ExpmIntegralTo(phi, gamma, a, b, 0.02, ws); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ExpmIntegralTo(phi, gamma, a, b, 0.02, ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ExpmIntegralTo allocates %.1f per run, want 0", allocs)
	}
}

// TestPoolReuseAndStats exercises the rent/return cycle and its counters.
// sync.Pool promises no particular Get its reuse: race builds drop one Put
// in four at random, a GC empties it, and a Put on one P can be out of
// reach of a Get on another. So the test pins what Pool itself promises:
// a returned workspace comes back within a bounded number of Put/Get
// cycles, orders never cross, the counters equal exactly the hits, misses
// and puts the loop observed, and Put(nil) is not counted.
func TestPoolReuseAndStats(t *testing.T) {
	var p Pool
	var hits, misses, puts uint64
	pooled := map[*ExpmWorkspace]bool{} // put back and not rented since
	get := func(n int) *ExpmWorkspace {
		ws := p.Get(n)
		if ws.N() != n {
			t.Fatalf("workspace order %d, want %d", ws.N(), n)
		}
		if pooled[ws] {
			delete(pooled, ws)
			hits++
		} else {
			misses++
		}
		return ws
	}
	put := func(ws *ExpmWorkspace) {
		p.Put(ws)
		pooled[ws] = true
		puts++
	}
	const cycles = 64 // a reuse-free run has odds of 4^-64 under -race
	ws := get(4)
	for c := 0; hits == 0; c++ {
		if c == cycles {
			t.Fatalf("no returned workspace came back in %d Put/Get cycles", cycles)
		}
		put(ws)
		ws = get(4)
	}
	put(ws)
	get(6) // an order-6 Get never takes the pooled order-4 workspaces
	if st := p.Stats(); st.Hits != hits || st.Misses != misses || st.Puts != puts {
		t.Fatalf("stats = %+v, want hits=%d misses=%d puts=%d", st, hits, misses, puts)
	}
	p.Put(nil) // must be a no-op
	if st := p.Stats(); st.Puts != puts {
		t.Fatalf("Put(nil) counted: %+v", st)
	}
}

// TestExpmToWorkspaceOrderMismatchPanics pins the fail-fast contract.
func TestExpmToWorkspaceOrderMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched workspace order")
		}
	}()
	a := New(3, 3)
	_ = ExpmTo(New(3, 3), a, NewExpmWorkspace(4))
}

// TestMulToAliasPanics pins MulTo's no-aliasing contract.
func TestMulToAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for aliased MulTo dst")
		}
	}()
	a := Identity(3)
	a.MulTo(a, Identity(3))
}

// Zero leaves every entry +0, as New does, whatever it held (−0 and NaN
// included), without allocating.
func TestZeroAllocFree(t *testing.T) {
	m := FromRows([][]float64{{math.Copysign(0, -1), math.NaN()}, {math.Inf(-1), 3}})
	if allocs := testing.AllocsPerRun(20, m.Zero); allocs != 0 {
		t.Fatalf("Zero allocates %g times", allocs)
	}
	if !m.EqualBits(New(2, 2)) {
		t.Fatalf("Zero left\n%v", m)
	}
}
