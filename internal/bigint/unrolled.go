package bigint

import (
	"fmt"
	"math/bits"
)

// Width-specialised, fully-unrolled Montgomery kernels for the 4-limb
// (BN254 Fp/Fr, BLS12-381 Fr) and 6-limb (BLS12-381 Fp) fields that
// dominate the MSM hot paths. The kernels implement the "no-carry" CIOS
// variant (the t[w+1] column provably stays zero when the top modulus
// limb is below 2^63-1, so the whole intermediate fits in w limbs and
// every loop dissolves into straight-line carry chains over registers).
// NewMontgomery selects them once per context via function-pointer
// dispatch; the generic CIOS/SOS/FIOS paths remain the bit-exact
// reference that the differential tests and fuzzers check against.

// unrolledOK reports whether the no-carry unrolled kernels are valid for
// modulus n: the highest limb must be nonzero (full width) and small
// enough that x[i]*y + t + u*N never overflows w+1 limbs.
func unrolledOK(n Nat) bool {
	top := n[len(n)-1]
	return top != 0 && top < (1<<63)-1
}

// Mont4 is the fixed-width face of an unrolled4 Montgomery context: its
// methods take *[4]uint64 and call the 4-limb kernels directly — no
// function pointer, no slice header — so value-typed arithmetic built on
// it (the pairing tower) keeps its operands on the stack.
type Mont4 struct {
	m  *Montgomery
	n  [4]uint64
	np uint64
}

// NewMont4 returns the fixed-width view of m, which must have selected
// the unrolled4 backend.
func NewMont4(m *Montgomery) (*Mont4, error) {
	if m.backend != "unrolled4" {
		return nil, fmt.Errorf("bigint: Mont4 needs the unrolled4 backend, have %s", m.backend)
	}
	return &Mont4{m: m, n: [4]uint64(m.N), np: m.NPrime0}, nil
}

// Mul sets z = x·y·R⁻¹ mod N; z may alias x or y.
func (m *Mont4) Mul(z, x, y *[4]uint64) { mul4(z, x, y, &m.n, m.np) }

// Square sets z = x²·R⁻¹ mod N; z may alias x.
func (m *Mont4) Square(z, x *[4]uint64) { sqr4(z, x, &m.n, m.np) }

// Add sets z = x + y mod N.
func (m *Mont4) Add(z, x, y *[4]uint64) { add4(z, x, y, &m.n) }

// Sub sets z = x − y mod N.
func (m *Mont4) Sub(z, x, y *[4]uint64) { sub4(z, x, y, &m.n) }

// Double sets z = 2x mod N.
func (m *Mont4) Double(z, x *[4]uint64) { add4(z, x, x, &m.n) }

// Neg sets z = −x mod N.
func (m *Mont4) Neg(z, x *[4]uint64) { sub4(z, &[4]uint64{}, x, &m.n) }

// Inv sets z = x⁻¹ in Montgomery form (zero for zero); see Montgomery.Inv.
func (m *Mont4) Inv(z, x *[4]uint64) { m.m.Inv(z[:], x[:]) }

// madd0 returns the high limb of a*b+c.
func madd0(a, b, c uint64) (hi uint64) {
	var carry, lo uint64
	hi, lo = bits.Mul64(a, b)
	_, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd1 returns a*b+c.
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd2 returns a*b+c+d.
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd3 returns a*b+c+d+e*2^64.
func madd3(a, b, c, d, e uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, e, carry)
	return
}

// mul4 sets z = x*y*R^-1 mod n (R = 2^256), no-carry CIOS unrolled over
// 4 limbs. Aliasing of z with x or y is fine: z is written only at the end.
func mul4(z, x, y, n *[4]uint64, nprime0 uint64) {
	var t0, t1, t2, t3 uint64
	var c0, c1, c2 uint64

	// round 0
	v := x[0]
	c1, c0 = bits.Mul64(v, y[0])
	u := c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd1(v, y[1], c1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd1(v, y[2], c1)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd1(v, y[3], c1)
	t3, t2 = madd3(u, n[3], c0, c2, c1)

	// round 1
	v = x[1]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	t3, t2 = madd3(u, n[3], c0, c2, c1)

	// round 2
	v = x[2]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	t3, t2 = madd3(u, n[3], c0, c2, c1)

	// round 3
	v = x[3]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	t3, t2 = madd3(u, n[3], c0, c2, c1)

	// z = t - n if t >= n
	r0, b := bits.Sub64(t0, n[0], 0)
	r1, b := bits.Sub64(t1, n[1], b)
	r2, b := bits.Sub64(t2, n[2], b)
	r3, b := bits.Sub64(t3, n[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// sqr4 sets z = x²·R^-1 mod n: the unrolled triangle+diagonal square
// (6 off-diagonal + 4 diagonal mults instead of 16) followed by an
// unrolled Montgomery reduction of the 8-limb product. z may alias x.
func sqr4(z, x, n *[4]uint64, nprime0 uint64) {
	var p0, p1, p2, p3, p4, p5, p6, p7 uint64
	var hi, lo, c, cc uint64

	// Off-diagonal triangle x[i]*x[j], i < j.
	// row 0: p1..p3, carry into p4
	hi, p1 = bits.Mul64(x[0], x[1])
	c = hi
	hi, lo = bits.Mul64(x[0], x[2])
	p2, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[0], x[3])
	p3, cc = bits.Add64(lo, c, 0)
	p4 = hi + cc
	// row 1: adds into p3, p4, carry into p5
	hi, lo = bits.Mul64(x[1], x[2])
	p3, cc = bits.Add64(p3, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[1], x[3])
	lo, cc = bits.Add64(lo, p4, 0)
	hi += cc
	p4, cc = bits.Add64(lo, c, 0)
	p5 = hi + cc
	// row 2: adds into p5, carry into p6
	hi, lo = bits.Mul64(x[2], x[3])
	p5, cc = bits.Add64(p5, lo, 0)
	p6 = hi + cc

	// Double the triangle.
	p7 = p6 >> 63
	p6 = p6<<1 | p5>>63
	p5 = p5<<1 | p4>>63
	p4 = p4<<1 | p3>>63
	p3 = p3<<1 | p2>>63
	p2 = p2<<1 | p1>>63
	p1 = p1 << 1

	// Add the diagonal squares.
	hi, p0 = bits.Mul64(x[0], x[0])
	p1, c = bits.Add64(p1, hi, 0)
	hi, lo = bits.Mul64(x[1], x[1])
	p2, c = bits.Add64(p2, lo, c)
	p3, c = bits.Add64(p3, hi, c)
	hi, lo = bits.Mul64(x[2], x[2])
	p4, c = bits.Add64(p4, lo, c)
	p5, c = bits.Add64(p5, hi, c)
	hi, lo = bits.Mul64(x[3], x[3])
	p6, c = bits.Add64(p6, lo, c)
	p7, _ = bits.Add64(p7, hi, c)

	// Montgomery reduction: 4 rounds of u = p[i]*n'0, p += u*n << 64i.
	// With n < 2^255 the final t = p / 2^256 < 2n fits 4 limbs.
	// round 0
	u := p0 * nprime0
	c = madd0(u, n[0], p0)
	c, p1 = madd2(u, n[1], c, p1)
	c, p2 = madd2(u, n[2], c, p2)
	c, p3 = madd2(u, n[3], c, p3)
	p4, cc = bits.Add64(p4, c, 0)
	p5, cc = bits.Add64(p5, 0, cc)
	p6, cc = bits.Add64(p6, 0, cc)
	p7, _ = bits.Add64(p7, 0, cc)
	// round 1
	u = p1 * nprime0
	c = madd0(u, n[0], p1)
	c, p2 = madd2(u, n[1], c, p2)
	c, p3 = madd2(u, n[2], c, p3)
	c, p4 = madd2(u, n[3], c, p4)
	p5, cc = bits.Add64(p5, c, 0)
	p6, cc = bits.Add64(p6, 0, cc)
	p7, _ = bits.Add64(p7, 0, cc)
	// round 2
	u = p2 * nprime0
	c = madd0(u, n[0], p2)
	c, p3 = madd2(u, n[1], c, p3)
	c, p4 = madd2(u, n[2], c, p4)
	c, p5 = madd2(u, n[3], c, p5)
	p6, cc = bits.Add64(p6, c, 0)
	p7, _ = bits.Add64(p7, 0, cc)
	// round 3
	u = p3 * nprime0
	c = madd0(u, n[0], p3)
	c, p4 = madd2(u, n[1], c, p4)
	c, p5 = madd2(u, n[2], c, p5)
	c, p6 = madd2(u, n[3], c, p6)
	p7, _ = bits.Add64(p7, c, 0)

	// z = p[4..7] - n if >= n
	r0, b := bits.Sub64(p4, n[0], 0)
	r1, b := bits.Sub64(p5, n[1], b)
	r2, b := bits.Sub64(p6, n[2], b)
	r3, b := bits.Sub64(p7, n[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = p4, p5, p6, p7
	}
}

// add4 sets z = x + y mod n for reduced operands; with n < 2^255 the raw
// sum cannot carry out of 4 limbs. The reduced or raw sum is selected
// by the borrow's mask, branch-free like sub4.
func add4(z, x, y, n *[4]uint64) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	r0, b := bits.Sub64(t0, n[0], 0)
	r1, b := bits.Sub64(t1, n[1], b)
	r2, b := bits.Sub64(t2, n[2], b)
	r3, b := bits.Sub64(t3, n[3], b)
	m := -b // all ones when t < n: keep the raw sum
	z[0] = r0 ^ ((r0 ^ t0) & m)
	z[1] = r1 ^ ((r1 ^ t1) & m)
	z[2] = r2 ^ ((r2 ^ t2) & m)
	z[3] = r3 ^ ((r3 ^ t3) & m)
}

// sub4 sets z = x - y mod n for reduced operands (adds n back on borrow,
// branch-free).
func sub4(z, x, y, n *[4]uint64) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	mask := -b
	var c uint64
	z[0], c = bits.Add64(t0, n[0]&mask, 0)
	z[1], c = bits.Add64(t1, n[1]&mask, c)
	z[2], c = bits.Add64(t2, n[2]&mask, c)
	z[3], _ = bits.Add64(t3, n[3]&mask, c)
}

// mul6 sets z = x*y*R^-1 mod n (R = 2^384), no-carry CIOS unrolled over
// 6 limbs. z may alias x or y.
func mul6(z, x, y, n *[6]uint64, nprime0 uint64) {
	var t0, t1, t2, t3, t4, t5 uint64
	var c0, c1, c2 uint64

	// round 0
	v := x[0]
	c1, c0 = bits.Mul64(v, y[0])
	u := c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd1(v, y[1], c1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd1(v, y[2], c1)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd1(v, y[3], c1)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd1(v, y[4], c1)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd1(v, y[5], c1)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// round 1
	v = x[1]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd2(v, y[4], c1, t4)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd2(v, y[5], c1, t5)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// round 2
	v = x[2]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd2(v, y[4], c1, t4)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd2(v, y[5], c1, t5)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// round 3
	v = x[3]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd2(v, y[4], c1, t4)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd2(v, y[5], c1, t5)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// round 4
	v = x[4]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd2(v, y[4], c1, t4)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd2(v, y[5], c1, t5)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// round 5
	v = x[5]
	c1, c0 = madd1(v, y[0], t0)
	u = c0 * nprime0
	c2 = madd0(u, n[0], c0)
	c1, c0 = madd2(v, y[1], c1, t1)
	c2, t0 = madd2(u, n[1], c2, c0)
	c1, c0 = madd2(v, y[2], c1, t2)
	c2, t1 = madd2(u, n[2], c2, c0)
	c1, c0 = madd2(v, y[3], c1, t3)
	c2, t2 = madd2(u, n[3], c2, c0)
	c1, c0 = madd2(v, y[4], c1, t4)
	c2, t3 = madd2(u, n[4], c2, c0)
	c1, c0 = madd2(v, y[5], c1, t5)
	t5, t4 = madd3(u, n[5], c0, c2, c1)

	// z = t - n if t >= n
	r0, b := bits.Sub64(t0, n[0], 0)
	r1, b := bits.Sub64(t1, n[1], b)
	r2, b := bits.Sub64(t2, n[2], b)
	r3, b := bits.Sub64(t3, n[3], b)
	r4, b := bits.Sub64(t4, n[4], b)
	r5, b := bits.Sub64(t5, n[5], b)
	if b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5] = r0, r1, r2, r3, r4, r5
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	}
}

// sqr6 sets z = x²·R^-1 mod n: unrolled triangle+diagonal square (15+6
// mults instead of 36) plus an unrolled reduction of the 12-limb product.
// z may alias x.
func sqr6(z, x, n *[6]uint64, nprime0 uint64) {
	var p [12]uint64
	var hi, lo, c, cc uint64

	// Off-diagonal triangle.
	// row 0: x0*x1..x0*x5 into p1..p5, carry into p6
	hi, p[1] = bits.Mul64(x[0], x[1])
	c = hi
	hi, lo = bits.Mul64(x[0], x[2])
	p[2], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[0], x[3])
	p[3], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[0], x[4])
	p[4], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[0], x[5])
	p[5], cc = bits.Add64(lo, c, 0)
	p[6] = hi + cc
	// row 1: x1*x2..x1*x5 into p3..p6, carry into p7
	c = 0
	hi, lo = bits.Mul64(x[1], x[2])
	p[3], cc = bits.Add64(p[3], lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[1], x[3])
	lo, cc = bits.Add64(lo, p[4], 0)
	hi += cc
	p[4], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[1], x[4])
	lo, cc = bits.Add64(lo, p[5], 0)
	hi += cc
	p[5], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[1], x[5])
	lo, cc = bits.Add64(lo, p[6], 0)
	hi += cc
	p[6], cc = bits.Add64(lo, c, 0)
	p[7] = hi + cc
	// row 2: x2*x3..x2*x5 into p5..p7, carry into p8
	hi, lo = bits.Mul64(x[2], x[3])
	p[5], cc = bits.Add64(p[5], lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[2], x[4])
	lo, cc = bits.Add64(lo, p[6], 0)
	hi += cc
	p[6], cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[2], x[5])
	lo, cc = bits.Add64(lo, p[7], 0)
	hi += cc
	p[7], cc = bits.Add64(lo, c, 0)
	p[8] = hi + cc
	// row 3: x3*x4, x3*x5 into p7..p8, carry into p9
	hi, lo = bits.Mul64(x[3], x[4])
	p[7], cc = bits.Add64(p[7], lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x[3], x[5])
	lo, cc = bits.Add64(lo, p[8], 0)
	hi += cc
	p[8], cc = bits.Add64(lo, c, 0)
	p[9] = hi + cc
	// row 4: x4*x5 into p9, carry into p10
	hi, lo = bits.Mul64(x[4], x[5])
	p[9], cc = bits.Add64(p[9], lo, 0)
	p[10] = hi + cc

	// Double the triangle.
	p[11] = p[10] >> 63
	p[10] = p[10]<<1 | p[9]>>63
	p[9] = p[9]<<1 | p[8]>>63
	p[8] = p[8]<<1 | p[7]>>63
	p[7] = p[7]<<1 | p[6]>>63
	p[6] = p[6]<<1 | p[5]>>63
	p[5] = p[5]<<1 | p[4]>>63
	p[4] = p[4]<<1 | p[3]>>63
	p[3] = p[3]<<1 | p[2]>>63
	p[2] = p[2]<<1 | p[1]>>63
	p[1] = p[1] << 1

	// Add the diagonal squares.
	hi, p[0] = bits.Mul64(x[0], x[0])
	p[1], c = bits.Add64(p[1], hi, 0)
	hi, lo = bits.Mul64(x[1], x[1])
	p[2], c = bits.Add64(p[2], lo, c)
	p[3], c = bits.Add64(p[3], hi, c)
	hi, lo = bits.Mul64(x[2], x[2])
	p[4], c = bits.Add64(p[4], lo, c)
	p[5], c = bits.Add64(p[5], hi, c)
	hi, lo = bits.Mul64(x[3], x[3])
	p[6], c = bits.Add64(p[6], lo, c)
	p[7], c = bits.Add64(p[7], hi, c)
	hi, lo = bits.Mul64(x[4], x[4])
	p[8], c = bits.Add64(p[8], lo, c)
	p[9], c = bits.Add64(p[9], hi, c)
	hi, lo = bits.Mul64(x[5], x[5])
	p[10], c = bits.Add64(p[10], lo, c)
	p[11], _ = bits.Add64(p[11], hi, c)

	// Montgomery reduction, 6 unrolled rounds.
	u := p[0] * nprime0
	c = madd0(u, n[0], p[0])
	c, p[1] = madd2(u, n[1], c, p[1])
	c, p[2] = madd2(u, n[2], c, p[2])
	c, p[3] = madd2(u, n[3], c, p[3])
	c, p[4] = madd2(u, n[4], c, p[4])
	c, p[5] = madd2(u, n[5], c, p[5])
	p[6], cc = bits.Add64(p[6], c, 0)
	p[7], cc = bits.Add64(p[7], 0, cc)
	p[8], cc = bits.Add64(p[8], 0, cc)
	p[9], cc = bits.Add64(p[9], 0, cc)
	p[10], cc = bits.Add64(p[10], 0, cc)
	p[11], _ = bits.Add64(p[11], 0, cc)

	u = p[1] * nprime0
	c = madd0(u, n[0], p[1])
	c, p[2] = madd2(u, n[1], c, p[2])
	c, p[3] = madd2(u, n[2], c, p[3])
	c, p[4] = madd2(u, n[3], c, p[4])
	c, p[5] = madd2(u, n[4], c, p[5])
	c, p[6] = madd2(u, n[5], c, p[6])
	p[7], cc = bits.Add64(p[7], c, 0)
	p[8], cc = bits.Add64(p[8], 0, cc)
	p[9], cc = bits.Add64(p[9], 0, cc)
	p[10], cc = bits.Add64(p[10], 0, cc)
	p[11], _ = bits.Add64(p[11], 0, cc)

	u = p[2] * nprime0
	c = madd0(u, n[0], p[2])
	c, p[3] = madd2(u, n[1], c, p[3])
	c, p[4] = madd2(u, n[2], c, p[4])
	c, p[5] = madd2(u, n[3], c, p[5])
	c, p[6] = madd2(u, n[4], c, p[6])
	c, p[7] = madd2(u, n[5], c, p[7])
	p[8], cc = bits.Add64(p[8], c, 0)
	p[9], cc = bits.Add64(p[9], 0, cc)
	p[10], cc = bits.Add64(p[10], 0, cc)
	p[11], _ = bits.Add64(p[11], 0, cc)

	u = p[3] * nprime0
	c = madd0(u, n[0], p[3])
	c, p[4] = madd2(u, n[1], c, p[4])
	c, p[5] = madd2(u, n[2], c, p[5])
	c, p[6] = madd2(u, n[3], c, p[6])
	c, p[7] = madd2(u, n[4], c, p[7])
	c, p[8] = madd2(u, n[5], c, p[8])
	p[9], cc = bits.Add64(p[9], c, 0)
	p[10], cc = bits.Add64(p[10], 0, cc)
	p[11], _ = bits.Add64(p[11], 0, cc)

	u = p[4] * nprime0
	c = madd0(u, n[0], p[4])
	c, p[5] = madd2(u, n[1], c, p[5])
	c, p[6] = madd2(u, n[2], c, p[6])
	c, p[7] = madd2(u, n[3], c, p[7])
	c, p[8] = madd2(u, n[4], c, p[8])
	c, p[9] = madd2(u, n[5], c, p[9])
	p[10], cc = bits.Add64(p[10], c, 0)
	p[11], _ = bits.Add64(p[11], 0, cc)

	u = p[5] * nprime0
	c = madd0(u, n[0], p[5])
	c, p[6] = madd2(u, n[1], c, p[6])
	c, p[7] = madd2(u, n[2], c, p[7])
	c, p[8] = madd2(u, n[3], c, p[8])
	c, p[9] = madd2(u, n[4], c, p[9])
	c, p[10] = madd2(u, n[5], c, p[10])
	p[11], _ = bits.Add64(p[11], c, 0)

	// z = p[6..11] - n if >= n
	r0, b := bits.Sub64(p[6], n[0], 0)
	r1, b := bits.Sub64(p[7], n[1], b)
	r2, b := bits.Sub64(p[8], n[2], b)
	r3, b := bits.Sub64(p[9], n[3], b)
	r4, b := bits.Sub64(p[10], n[4], b)
	r5, b := bits.Sub64(p[11], n[5], b)
	if b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5] = r0, r1, r2, r3, r4, r5
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5] = p[6], p[7], p[8], p[9], p[10], p[11]
	}
}

// add6 sets z = x + y mod n for reduced operands. It keeps the branch:
// add4's mask select measured ~3 % slower at 6 limbs (BenchmarkPACC and
// BenchmarkPADD on BLS12-381, 2-vCPU x86-64, -cpu 1).
func add6(z, x, y, n *[6]uint64) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	t4, c := bits.Add64(x[4], y[4], c)
	t5, _ := bits.Add64(x[5], y[5], c)
	r0, b := bits.Sub64(t0, n[0], 0)
	r1, b := bits.Sub64(t1, n[1], b)
	r2, b := bits.Sub64(t2, n[2], b)
	r3, b := bits.Sub64(t3, n[3], b)
	r4, b := bits.Sub64(t4, n[4], b)
	r5, b := bits.Sub64(t5, n[5], b)
	if b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5] = r0, r1, r2, r3, r4, r5
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	}
}

// sub6 sets z = x - y mod n for reduced operands.
func sub6(z, x, y, n *[6]uint64) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	t4, b := bits.Sub64(x[4], y[4], b)
	t5, b := bits.Sub64(x[5], y[5], b)
	mask := -b
	var c uint64
	z[0], c = bits.Add64(t0, n[0]&mask, 0)
	z[1], c = bits.Add64(t1, n[1]&mask, c)
	z[2], c = bits.Add64(t2, n[2]&mask, c)
	z[3], c = bits.Add64(t3, n[3]&mask, c)
	z[4], c = bits.Add64(t4, n[4]&mask, c)
	z[5], _ = bits.Add64(t5, n[5]&mask, c)
}
