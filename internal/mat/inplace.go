package mat

import "fmt"

// This file holds the explicit-workspace ("To") twins of the allocating
// matrix ops. The receiver is always the left operand and dst the output,
// mirroring MulVecTo: m.MulTo(dst, b) computes dst = m·b. Aliasing rules
// per op: the element-wise ops (AddTo, SubTo, ScaleTo, CopyTo) allow dst
// to alias either operand; MulTo requires dst to be distinct from both
// operands because it accumulates into dst while still reading them.

// CopyTo copies m into dst, which must have the same shape.
//
//cpsdyn:allocfree workspace primitive on the Expm squaring path
func (m *Matrix) CopyTo(dst *Matrix) {
	m.sameShape(dst, "CopyTo")
	copy(dst.data, m.data)
}

// AddTo computes dst = m + b. dst may alias m and/or b.
//
//cpsdyn:allocfree workspace primitive on the Padé Horner path
func (m *Matrix) AddTo(dst, b *Matrix) {
	m.sameShape(b, "AddTo")
	m.sameShape(dst, "AddTo")
	for i, v := range m.data {
		dst.data[i] = v + b.data[i]
	}
}

// SubTo computes dst = m − b. dst may alias m and/or b.
//
//cpsdyn:allocfree workspace primitive on the Padé Horner path
func (m *Matrix) SubTo(dst, b *Matrix) {
	m.sameShape(b, "SubTo")
	m.sameShape(dst, "SubTo")
	for i, v := range m.data {
		dst.data[i] = v - b.data[i]
	}
}

// ScaleTo computes dst = s·m. dst may alias m.
//
//cpsdyn:allocfree workspace primitive on the Expm scaling path
func (m *Matrix) ScaleTo(dst *Matrix, s float64) {
	m.sameShape(dst, "ScaleTo")
	for i, v := range m.data {
		dst.data[i] = s * v
	}
}

// Zero sets every entry of m to +0, as New leaves them.
//
//cpsdyn:allocfree resets caller-held workspace matrices
func (m *Matrix) Zero() { clear(m.data) }

// setIdentityScaled sets m (square) to s·I.
//
//cpsdyn:allocfree resets workspace buffers between Expm evaluations
func (m *Matrix) setIdentityScaled(s float64) {
	n := m.cols
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = s
	}
}

// MulTo computes the matrix product dst = m·b without allocating. dst must
// be m.Rows()×b.Cols() and must not alias m or b. Square products of order
// ≤ 4 — the plant orders that dominate automotive CPS models — dispatch to
// fully unrolled kernels; TestPropMulToMatchesMul in workspace_test.go pins
// those kernels byte-identical to the generic loop.
//
//cpsdyn:allocfree the multiply inside every Padé evaluation and squaring step
func (m *Matrix) MulTo(dst, b *Matrix) {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo shape mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo dst %d×%d, want %d×%d", dst.rows, dst.cols, m.rows, b.cols))
	}
	if dst == m || dst == b {
		panic("mat: MulTo dst must not alias an operand")
	}
	n := m.rows
	if n == m.cols && n == b.cols && n <= maxUnrolled {
		mulToSmall(dst.data, m.data, b.data, n)
		return
	}
	bc := b.cols
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		out := dst.data[i*bc : (i+1)*bc]
		for j := range out {
			out[j] = 0
		}
		for k, a := range row {
			bRow := b.data[k*bc : (k+1)*bc]
			for j, bv := range bRow {
				out[j] += a * bv
			}
		}
	}
}
