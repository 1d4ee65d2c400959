// Package mat provides the small dense linear-algebra kernel used by the
// control-design and simulation layers: matrix arithmetic, LU-based solves,
// eigenvalues via Hessenberg QR iteration, and the Padé matrix exponential.
//
// The package is deliberately minimal and dependency-free; matrices in this
// repository are tiny (plant orders 2–4, augmented orders up to ~6), so
// asymptotic cleverness buys nothing — the performance levers are allocation
// and dispatch. Every hot op therefore has an explicit-workspace "To" twin
// (MulTo, AddTo, SolveTo, ExpmTo, ...) that writes into caller-held storage
// and allocates nothing in steady state, with the historical allocating
// names kept as thin wrappers; see the package's workspace types (LU,
// ExpmWorkspace, Pool) and the root doc.go Performance section for the
// ownership and aliasing contract.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
// The zero value is an empty (0×0) matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Wrap returns an r×c matrix backed by data, row-major, without copying:
// writes through the matrix and through data see each other. It lets a
// caller carve several workspace matrices out of one flat allocation; it
// is small enough to inline, so a header that stays local to the caller
// is not heap-allocated either.
func Wrap(r, c int, data []float64) *Matrix {
	if r < 0 || c < 0 || len(data) != r*c {
		panic("mat: Wrap shape does not match the data length")
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from a slice of equally long rows.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the main diagonal.
func Diag(d ...float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// ColVec returns an n×1 column vector with the given entries.
func ColVec(v ...float64) *Matrix {
	m := New(len(v), 1)
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	out := New(m.rows, m.cols)
	m.AddTo(out, b)
	return out
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	out := New(m.rows, m.cols)
	m.SubTo(out, b)
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.rows, m.cols)
	m.ScaleTo(out, s)
	return out
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	m.MulTo(out, b)
	return out
}

// MulVec returns the matrix–vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecTo(out, v)
	return out
}

// MulVecTo computes dst = m·v without allocating; dst must have length
// m.Rows() and must not alias v. It is the inner kernel of the settling
// simulations, which step the same tiny matrix tens of thousands of times.
//
//cpsdyn:allocfree the "without allocating" contract above, made machine-checked (TestMulVecTo additionally pins it with AllocsPerRun)
func (m *Matrix) MulVecTo(dst, v []float64) {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecTo shape mismatch %d×%d · %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, want %d", len(dst), m.rows))
	}
	if m.cols >= 1 && m.cols <= maxUnrolled {
		mulVecSmall(dst, m.data, v, m.rows, m.cols)
		return
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// MulVecsTo computes m·v for a batch of vectors stored back to back: v
// holds k vectors of length Cols(), dst[q·Rows():(q+1)·Rows()] receives m
// times the q-th, and sums[q] (len(sums) = k) the sum of squares of that
// product's first d entries, summed as VecNorm2 sums them: in order, from
// +0. dst must not alias v, and 0 ≤ d ≤ Rows(). Each product keeps
// MulVecTo's accumulation order from a +0 seed, so every entry is
// bit-identical to k MulVecTo calls and every sum to the sum under
// VecNorm2's square root; what the batch saves is the per-call overhead,
// the reloads of m and the reloads of the products. The generic form
// steps four vectors per pass over m's rows and the one to three left
// over singly; the order-3 form keeps m's nine entries in registers
// across the batch. It is the lockstep kernel of the dwell-curve walks.
//
//cpsdyn:allocfree steps every live lane of a lockstep walk once per call; a walk makes thousands
func (m *Matrix) MulVecsTo(dst, v, sums []float64, d int) {
	r, c := m.rows, m.cols
	if c == 0 || len(v)%c != 0 || len(dst) != len(v)/c*r || len(sums) != len(v)/c || d < 0 || d > r {
		panic(fmt.Sprintf("mat: MulVecsTo shape mismatch %d×%d · %d values into %d, %d sums of %d rows",
			r, c, len(v), len(dst), len(sums), d))
	}
	if r == 3 && c == 3 {
		mulVecs3(dst, m.data, v, sums, d)
		return
	}
	k := len(v) / c
	q := 0
	for ; q+4 <= k; q += 4 {
		x0, x1, x2, x3 := v[q*c:][:c], v[(q+1)*c:][:c], v[(q+2)*c:][:c], v[(q+3)*c:][:c]
		y0, y1, y2, y3 := dst[q*r:][:r], dst[(q+1)*r:][:r], dst[(q+2)*r:][:r], dst[(q+3)*r:][:r]
		var q0, q1, q2, q3 float64
		for i := range y0 {
			row := m.data[i*c:][:c]
			var s0, s1, s2, s3 float64
			for j, a := range row {
				s0 += a * x0[j]
				s1 += a * x1[j]
				s2 += a * x2[j]
				s3 += a * x3[j]
			}
			y0[i], y1[i], y2[i], y3[i] = s0, s1, s2, s3
			if i < d {
				q0 += s0 * s0
				q1 += s1 * s1
				q2 += s2 * s2
				q3 += s3 * s3
			}
		}
		sums[q], sums[q+1], sums[q+2], sums[q+3] = q0, q1, q2, q3
	}
	for ; q < k; q++ {
		x, y := v[q*c:][:c], dst[q*r:][:r]
		var sq float64
		for i := range y {
			row := m.data[i*c:][:c]
			var s float64
			for j, a := range row {
				s += a * x[j]
			}
			y[i] = s
			if i < d {
				sq += s * s
			}
		}
		sums[q] = sq
	}
}

// T returns the transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Pow returns m^k for k ≥ 0 via repeated squaring. m must be square.
func (m *Matrix) Pow(k int) *Matrix {
	m.mustSquare("Pow")
	if k < 0 {
		panic("mat: Pow negative exponent")
	}
	result := Identity(m.rows)
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result
}

func (m *Matrix) mustSquare(op string) {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: %s requires square matrix, got %d×%d", op, m.rows, m.cols))
	}
}

// Norm1 returns the maximum absolute column sum.
func (m *Matrix) Norm1() float64 {
	max := 0.0
	for j := 0; j < m.cols; j++ {
		s := 0.0
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormInf returns the maximum absolute row sum.
func (m *Matrix) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for j := 0; j < m.cols; j++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormFrob returns the Frobenius norm.
func (m *Matrix) NormFrob() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max |m_ij − b_ij|; useful in tests.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	m.sameShape(b, "MaxAbsDiff")
	max := 0.0
	for i, v := range m.data {
		d := math.Abs(v - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// EqualBits reports whether m and b have identical shape and bit-identical
// entries (math.Float64bits comparison, so −0 ≠ +0 and NaNs compare by
// payload): the test that a workspace kernel or a store round trip
// reproduces a matrix exactly.
//
//cpsdyn:allocfree a read-only comparison of two matrices; nothing in it needs the heap
func (m *Matrix) EqualBits(b *Matrix) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// IsFinite reports whether no entry of m is NaN or ±Inf.
func (m *Matrix) IsFinite() bool { return VecIsFinite(m.data) }

// EqualTol reports whether all entries of m and b agree within tol.
func (m *Matrix) EqualTol(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	return m.MaxAbsDiff(b) <= tol
}

// Slice returns the sub-matrix m[r0:r1, c0:c1] (half-open ranges) as a copy.
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d,%d:%d] out of range %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetSubmatrix copies src into m starting at (r0, c0).
func (m *Matrix) SetSubmatrix(r0, c0 int, src *Matrix) {
	if r0+src.rows > m.rows || c0+src.cols > m.cols || r0 < 0 || c0 < 0 {
		panic(fmt.Sprintf("mat: SetSubmatrix %d×%d at (%d,%d) exceeds %d×%d",
			src.rows, src.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+src.cols], src.data[i*src.cols:(i+1)*src.cols])
	}
}

// Block assembles a matrix from a 2-D grid of blocks. All blocks in a grid
// row must share a height; all blocks in a grid column must share a width.
func Block(blocks [][]*Matrix) *Matrix {
	if len(blocks) == 0 {
		return New(0, 0)
	}
	rowHeights := make([]int, len(blocks))
	colWidths := make([]int, len(blocks[0]))
	for i, row := range blocks {
		if len(row) != len(colWidths) {
			panic("mat: Block ragged block grid")
		}
		rowHeights[i] = row[0].rows
		for j, b := range row {
			if b.rows != rowHeights[i] {
				panic(fmt.Sprintf("mat: Block row %d height mismatch", i))
			}
			if i == 0 {
				colWidths[j] = b.cols
			} else if b.cols != colWidths[j] {
				panic(fmt.Sprintf("mat: Block col %d width mismatch", j))
			}
		}
	}
	total := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	out := New(total(rowHeights), total(colWidths))
	r0 := 0
	for i, row := range blocks {
		c0 := 0
		for j, b := range row {
			out.SetSubmatrix(r0, c0, b)
			c0 += colWidths[j]
		}
		r0 += rowHeights[i]
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%11.5g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// VecIsFinite reports whether no entry of v is NaN or ±Inf.
func VecIsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// VecNorm2 returns the Euclidean norm of v.
//
//cpsdyn:allocfree called once per simulated step through System.Norm
func VecNorm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// VecAdd returns a + b.
func VecAdd(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: VecAdd length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// VecSub returns a − b.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: VecSub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
