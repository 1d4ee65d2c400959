package mat

// Unrolled dense kernels for the matrix orders that dominate automotive
// plants (orders 1–4; the augmented delay blocks reach ~6 and take the
// generic loop). Every kernel accumulates in exactly the generic order —
// a zero seed, then k-ascending partial products — so results are
// byte-identical to the generic path, including the sign of zero; the
// differential property tests pin this with Float64bits comparisons.

// maxUnrolled is the largest square order with a dedicated kernel.
const maxUnrolled = 4

// mulToSmall computes dst = a·b for square order-n operands, n ≤ maxUnrolled.
//
//cpsdyn:allocfree the unrolled fast path under MulTo's allocfree contract
func mulToSmall(dst, a, b []float64, n int) {
	switch n {
	case 1:
		var s float64
		s += a[0] * b[0]
		dst[0] = s
	case 2:
		b00, b01 := b[0], b[1]
		b10, b11 := b[2], b[3]
		for i := 0; i < 2; i++ {
			a0, a1 := a[2*i], a[2*i+1]
			var s0, s1 float64
			s0 += a0 * b00
			s0 += a1 * b10
			s1 += a0 * b01
			s1 += a1 * b11
			dst[2*i] = s0
			dst[2*i+1] = s1
		}
	case 3:
		b00, b01, b02 := b[0], b[1], b[2]
		b10, b11, b12 := b[3], b[4], b[5]
		b20, b21, b22 := b[6], b[7], b[8]
		for i := 0; i < 3; i++ {
			a0, a1, a2 := a[3*i], a[3*i+1], a[3*i+2]
			var s0, s1, s2 float64
			s0 += a0 * b00
			s0 += a1 * b10
			s0 += a2 * b20
			s1 += a0 * b01
			s1 += a1 * b11
			s1 += a2 * b21
			s2 += a0 * b02
			s2 += a1 * b12
			s2 += a2 * b22
			dst[3*i] = s0
			dst[3*i+1] = s1
			dst[3*i+2] = s2
		}
	case 4:
		b00, b01, b02, b03 := b[0], b[1], b[2], b[3]
		b10, b11, b12, b13 := b[4], b[5], b[6], b[7]
		b20, b21, b22, b23 := b[8], b[9], b[10], b[11]
		b30, b31, b32, b33 := b[12], b[13], b[14], b[15]
		for i := 0; i < 4; i++ {
			a0, a1, a2, a3 := a[4*i], a[4*i+1], a[4*i+2], a[4*i+3]
			var s0, s1, s2, s3 float64
			s0 += a0 * b00
			s0 += a1 * b10
			s0 += a2 * b20
			s0 += a3 * b30
			s1 += a0 * b01
			s1 += a1 * b11
			s1 += a2 * b21
			s1 += a3 * b31
			s2 += a0 * b02
			s2 += a1 * b12
			s2 += a2 * b22
			s2 += a3 * b32
			s3 += a0 * b03
			s3 += a1 * b13
			s3 += a2 * b23
			s3 += a3 * b33
			dst[4*i] = s0
			dst[4*i+1] = s1
			dst[4*i+2] = s2
			dst[4*i+3] = s3
		}
	}
}

// mulVecSmall computes dst = m·v for an r×c matrix with c ≤ maxUnrolled,
// the shape of every settling-simulation step at plant orders 1–3.
//
//cpsdyn:allocfree the unrolled fast path under MulVecTo's allocfree contract
func mulVecSmall(dst, m, v []float64, r, c int) {
	switch c {
	case 1:
		v0 := v[0]
		for i := 0; i < r; i++ {
			var s float64
			s += m[i] * v0
			dst[i] = s
		}
	case 2:
		v0, v1 := v[0], v[1]
		for i := 0; i < r; i++ {
			var s float64
			s += m[2*i] * v0
			s += m[2*i+1] * v1
			dst[i] = s
		}
	case 3:
		v0, v1, v2 := v[0], v[1], v[2]
		for i := 0; i < r; i++ {
			var s float64
			s += m[3*i] * v0
			s += m[3*i+1] * v1
			s += m[3*i+2] * v2
			dst[i] = s
		}
	case 4:
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		for i := 0; i < r; i++ {
			var s float64
			s += m[4*i] * v0
			s += m[4*i+1] * v1
			s += m[4*i+2] * v2
			s += m[4*i+3] * v3
			dst[i] = s
		}
	}
}

// mulVecs3 is MulVecsTo for a 3×3 matrix m: the nine entries stay in
// registers across the whole batch.
//
//cpsdyn:allocfree the unrolled fast path under MulVecsTo's allocfree contract
func mulVecs3(dst, m, v []float64) {
	m = m[:9]
	a00, a01, a02 := m[0], m[1], m[2]
	a10, a11, a12 := m[3], m[4], m[5]
	a20, a21, a22 := m[6], m[7], m[8]
	for len(v) >= 3 && len(dst) >= 3 {
		v0, v1, v2 := v[0], v[1], v[2]
		var s0, s1, s2 float64
		s0 += a00 * v0
		s1 += a10 * v0
		s2 += a20 * v0
		s0 += a01 * v1
		s1 += a11 * v1
		s2 += a21 * v1
		s0 += a02 * v2
		s1 += a12 * v2
		s2 += a22 * v2
		dst[0], dst[1], dst[2] = s0, s1, s2
		v, dst = v[3:], dst[3:]
	}
}
