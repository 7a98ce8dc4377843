// Package pairing implements a bilinear pairing on BN254 from scratch:
// the extension-field tower Fp2 = Fp[u]/(u²+1), Fp6 = Fp2[v]/(v³−ξ) with
// ξ = 9+u, Fp12 = Fp6[w]/(w²−v); the sextic-twist group G2; the
// optimal-ate multi-Miller loop over 6x+2 with sparse line products; and
// the final exponentiation, whose hard part is the BN x-chain on
// cyclotomic squarings. It is the substrate for the
// Groth16 prover/verifier used in the paper's end-to-end evaluation
// (Table 4). Correctness rests on algebraic self-tests (field axioms,
// bilinearity e(aP, bQ) = e(P,Q)^{ab}, non-degeneracy) rather than
// external vectors, since the build is offline.
//
// The tower is value-typed over fixed 4-limb coordinates: every E2/E6/E12
// is a plain array-backed struct, every Tower method works on stack
// locals through bigint.Mont4, and nothing on the pairing or G2 paths
// allocates (internal/pairing/alloc_test.go pins it).
package pairing

import (
	"fmt"
	"math/big"

	"distmsm/internal/bigint"
	"distmsm/internal/field"
)

// fe is a BN254 base-field element in Montgomery form.
type fe = [4]uint64

// E2 is an element of Fp2 = Fp[u]/(u²+1): A0 + A1·u.
type E2 struct{ A0, A1 fe }

// E6 is an element of Fp6 = Fp2[v]/(v³−ξ): C0 + C1·v + C2·v².
type E6 struct{ C0, C1, C2 E2 }

// E12 is an element of Fp12 = Fp6[w]/(w²−v): D0 + D1·w.
type E12 struct{ D0, D1 E6 }

// Tower provides arithmetic for the BN254 extension tower.
type Tower struct {
	F   *field.Field // the base field Fp
	m   *bigint.Mont4
	one fe
}

// NewTower wraps the base field, which must be a 4-limb field on the
// unrolled backend: the package is BN254-only.
func NewTower(f *field.Field) (*Tower, error) {
	m, err := bigint.NewMont4(f.Montgomery())
	if err != nil {
		return nil, fmt.Errorf("pairing: field %s: %w", f.Name, err)
	}
	return &Tower{F: f, m: m, one: fe(f.One())}, nil
}

// ---------- Fp2 ----------

// E2Zero returns zero.
func (t *Tower) E2Zero() E2 { return E2{} }

// E2One returns one.
func (t *Tower) E2One() E2 { return E2{A0: t.one} }

// E2IsZero reports z == 0.
func (t *Tower) E2IsZero(z *E2) bool { return *z == E2{} }

// E2Equal reports x == y.
func (t *Tower) E2Equal(x, y *E2) bool { return *x == *y }

// E2Add sets z = x + y.
func (t *Tower) E2Add(z, x, y *E2) { t.m.Add(&z.A0, &x.A0, &y.A0); t.m.Add(&z.A1, &x.A1, &y.A1) }

// E2Sub sets z = x - y.
func (t *Tower) E2Sub(z, x, y *E2) { t.m.Sub(&z.A0, &x.A0, &y.A0); t.m.Sub(&z.A1, &x.A1, &y.A1) }

// E2Neg sets z = -x.
func (t *Tower) E2Neg(z, x *E2) { t.m.Neg(&z.A0, &x.A0); t.m.Neg(&z.A1, &x.A1) }

// E2Double sets z = 2x.
func (t *Tower) E2Double(z, x *E2) { t.m.Double(&z.A0, &x.A0); t.m.Double(&z.A1, &x.A1) }

// E2Mul sets z = x·y by Karatsuba: three base-field products (z may alias
// x or y).
func (t *Tower) E2Mul(z, x, y *E2) {
	m := t.m
	var a0b0, a1b1, s, u fe
	m.Mul(&a0b0, &x.A0, &y.A0)
	m.Mul(&a1b1, &x.A1, &y.A1)
	m.Add(&s, &x.A0, &x.A1)
	m.Add(&u, &y.A0, &y.A1)
	m.Mul(&s, &s, &u)
	m.Sub(&s, &s, &a0b0)
	m.Sub(&z.A1, &s, &a1b1) // a0b1 + a1b0
	m.Sub(&z.A0, &a0b0, &a1b1)
}

// E2Square sets z = x² (z may alias x).
func (t *Tower) E2Square(z, x *E2) {
	m := t.m
	var sum, diff, prod fe
	m.Add(&sum, &x.A0, &x.A1)
	m.Sub(&diff, &x.A0, &x.A1)
	m.Mul(&prod, &x.A0, &x.A1)
	m.Mul(&z.A0, &sum, &diff) // a0² - a1²
	m.Double(&z.A1, &prod)    // 2a0a1
}

// E2Conjugate sets z = a0 − a1·u, which equals x^p.
func (t *Tower) E2Conjugate(z, x *E2) { z.A0 = x.A0; t.m.Neg(&z.A1, &x.A1) }

// E2MulByFp scales both coordinates by an Fp element.
func (t *Tower) E2MulByFp(z, x *E2, c *fe) {
	t.m.Mul(&z.A0, &x.A0, c)
	t.m.Mul(&z.A1, &x.A1, c)
}

// E2MulByXi multiplies by the sextic non-residue ξ = 9 + u:
// (9a0 − a1) + (a0 + 9a1)u, with 9a = 8a + a by doublings.
func (t *Tower) E2MulByXi(z, x *E2) {
	m := t.m
	var n0, n1 fe
	m.Double(&n0, &x.A0)
	m.Double(&n0, &n0)
	m.Double(&n0, &n0)
	m.Add(&n0, &n0, &x.A0)
	m.Double(&n1, &x.A1)
	m.Double(&n1, &n1)
	m.Double(&n1, &n1)
	m.Add(&n1, &n1, &x.A1)
	m.Sub(&n0, &n0, &x.A1)
	m.Add(&n1, &n1, &x.A0)
	z.A0, z.A1 = n0, n1
}

// E2Inv sets z = x⁻¹ = (a0 − a1·u)/(a0² + a1²).
func (t *Tower) E2Inv(z, x *E2) {
	m := t.m
	var n, tmp fe
	m.Square(&n, &x.A0)
	m.Square(&tmp, &x.A1)
	m.Add(&n, &n, &tmp)
	m.Inv(&n, &n)
	m.Neg(&tmp, &x.A1)
	m.Mul(&z.A0, &x.A0, &n)
	m.Mul(&z.A1, &tmp, &n)
}

// ---------- Fp6 ----------

// E6Zero returns zero.
func (t *Tower) E6Zero() E6 { return E6{} }

// E6One returns one.
func (t *Tower) E6One() E6 { return E6{C0: t.E2One()} }

// E6Equal reports x == y.
func (t *Tower) E6Equal(x, y *E6) bool { return *x == *y }

// E6Add sets z = x + y.
func (t *Tower) E6Add(z, x, y *E6) {
	t.E2Add(&z.C0, &x.C0, &y.C0)
	t.E2Add(&z.C1, &x.C1, &y.C1)
	t.E2Add(&z.C2, &x.C2, &y.C2)
}

// E6Sub sets z = x - y.
func (t *Tower) E6Sub(z, x, y *E6) {
	t.E2Sub(&z.C0, &x.C0, &y.C0)
	t.E2Sub(&z.C1, &x.C1, &y.C1)
	t.E2Sub(&z.C2, &x.C2, &y.C2)
}

// E6Neg sets z = -x.
func (t *Tower) E6Neg(z, x *E6) {
	t.E2Neg(&z.C0, &x.C0)
	t.E2Neg(&z.C1, &x.C1)
	t.E2Neg(&z.C2, &x.C2)
}

// E6Mul sets z = x·y (Karatsuba over the cubic extension; z may alias).
func (t *Tower) E6Mul(z, x, y *E6) {
	var t0, t1, t2, s1, s2, tmp, c0, c1, c2 E2
	t.E2Mul(&t0, &x.C0, &y.C0)
	t.E2Mul(&t1, &x.C1, &y.C1)
	t.E2Mul(&t2, &x.C2, &y.C2)

	// c0 = t0 + ξ((a1+a2)(b1+b2) − t1 − t2)
	t.E2Add(&s1, &x.C1, &x.C2)
	t.E2Add(&s2, &y.C1, &y.C2)
	t.E2Mul(&tmp, &s1, &s2)
	t.E2Sub(&tmp, &tmp, &t1)
	t.E2Sub(&tmp, &tmp, &t2)
	t.E2MulByXi(&tmp, &tmp)
	t.E2Add(&c0, &t0, &tmp)

	// c1 = (a0+a1)(b0+b1) − t0 − t1 + ξ·t2
	t.E2Add(&s1, &x.C0, &x.C1)
	t.E2Add(&s2, &y.C0, &y.C1)
	t.E2Mul(&tmp, &s1, &s2)
	t.E2Sub(&tmp, &tmp, &t0)
	t.E2Sub(&tmp, &tmp, &t1)
	t.E2MulByXi(&c1, &t2)
	t.E2Add(&c1, &c1, &tmp)

	// c2 = (a0+a2)(b0+b2) − t0 − t2 + t1
	t.E2Add(&s1, &x.C0, &x.C2)
	t.E2Add(&s2, &y.C0, &y.C2)
	t.E2Mul(&tmp, &s1, &s2)
	t.E2Sub(&tmp, &tmp, &t0)
	t.E2Sub(&tmp, &tmp, &t2)
	t.E2Add(&c2, &tmp, &t1)

	*z = E6{c0, c1, c2}
}

// E6Square sets z = x².
func (t *Tower) E6Square(z, x *E6) { t.E6Mul(z, x, x) }

// e6MulByE2 sets z = x·c for c in Fp2: three Fp2 products.
func (t *Tower) e6MulByE2(z, x *E6, c *E2) {
	t.E2Mul(&z.C0, &x.C0, c)
	t.E2Mul(&z.C1, &x.C1, c)
	t.E2Mul(&z.C2, &x.C2, c)
}

// e6MulBy01 sets z = x·(c0 + c1·v), five Fp2 products instead of E6Mul's
// six (z may alias x):
// (x0c0 + ξ·x2c1) + (x0c1 + x1c0)·v + (x1c1 + x2c0)·v².
func (t *Tower) e6MulBy01(z, x *E6, c0, c1 *E2) {
	var a, b, s, u, z0, z1, z2 E2
	t.E2Mul(&a, &x.C0, c0)
	t.E2Mul(&b, &x.C1, c1)
	// z0 = a + ξ·(c1(x1+x2) − b)
	t.E2Add(&s, &x.C1, &x.C2)
	t.E2Mul(&z0, &s, c1)
	t.E2Sub(&z0, &z0, &b)
	t.E2MulByXi(&z0, &z0)
	t.E2Add(&z0, &z0, &a)
	// z1 = (c0+c1)(x0+x1) − a − b
	t.E2Add(&s, &x.C0, &x.C1)
	t.E2Add(&u, c0, c1)
	t.E2Mul(&z1, &s, &u)
	t.E2Sub(&z1, &z1, &a)
	t.E2Sub(&z1, &z1, &b)
	// z2 = c0(x0+x2) − a + b
	t.E2Add(&s, &x.C0, &x.C2)
	t.E2Mul(&z2, &s, c0)
	t.E2Sub(&z2, &z2, &a)
	t.E2Add(&z2, &z2, &b)
	*z = E6{z0, z1, z2}
}

// E6MulByV multiplies by v: (c0, c1, c2) → (ξ·c2, c0, c1).
func (t *Tower) E6MulByV(z, x *E6) {
	var c0 E2
	t.E2MulByXi(&c0, &x.C2)
	*z = E6{c0, x.C0, x.C1}
}

// E6Inv sets z = x⁻¹ via the standard cubic-extension formula.
func (t *Tower) E6Inv(z, x *E6) {
	var v0, v1, v2, tmp, f0, f1 E2

	// v0 = c0² − ξ·c1·c2
	t.E2Square(&v0, &x.C0)
	t.E2Mul(&tmp, &x.C1, &x.C2)
	t.E2MulByXi(&tmp, &tmp)
	t.E2Sub(&v0, &v0, &tmp)
	// v1 = ξ·c2² − c0·c1
	t.E2Square(&v1, &x.C2)
	t.E2MulByXi(&v1, &v1)
	t.E2Mul(&tmp, &x.C0, &x.C1)
	t.E2Sub(&v1, &v1, &tmp)
	// v2 = c1² − c0·c2
	t.E2Square(&v2, &x.C1)
	t.E2Mul(&tmp, &x.C0, &x.C2)
	t.E2Sub(&v2, &v2, &tmp)

	// F = c0·v0 + ξ·(c2·v1 + c1·v2)
	t.E2Mul(&f0, &x.C0, &v0)
	t.E2Mul(&f1, &x.C2, &v1)
	t.E2Mul(&tmp, &x.C1, &v2)
	t.E2Add(&f1, &f1, &tmp)
	t.E2MulByXi(&f1, &f1)
	t.E2Add(&f0, &f0, &f1)
	t.E2Inv(&f0, &f0)

	t.E2Mul(&z.C0, &v0, &f0)
	t.E2Mul(&z.C1, &v1, &f0)
	t.E2Mul(&z.C2, &v2, &f0)
}

// ---------- Fp12 ----------

// E12Zero returns zero.
func (t *Tower) E12Zero() E12 { return E12{} }

// E12One returns one.
func (t *Tower) E12One() E12 { return E12{D0: t.E6One()} }

// E12Equal reports x == y.
func (t *Tower) E12Equal(x, y *E12) bool { return *x == *y }

// E12IsOne reports x == 1.
func (t *Tower) E12IsOne(x *E12) bool { return *x == t.E12One() }

// E12Mul sets z = x·y: c0 = a0b0 + v·a1b1, c1 = a0b1 + a1b0 (Karatsuba).
func (t *Tower) E12Mul(z, x, y *E12) {
	var t0, t1, s0, s1, mid E6
	t.E6Mul(&t0, &x.D0, &y.D0)
	t.E6Mul(&t1, &x.D1, &y.D1)
	t.E6Add(&s0, &x.D0, &x.D1)
	t.E6Add(&s1, &y.D0, &y.D1)
	t.E6Mul(&mid, &s0, &s1)
	t.E6Sub(&mid, &mid, &t0)
	t.E6Sub(&z.D1, &mid, &t1)
	t.E6MulByV(&t1, &t1)
	t.E6Add(&z.D0, &t0, &t1)
}

// E12Square sets z = x² by complex squaring, two E6Muls instead of three:
// for x = a + b·w, x² = ((a+b)(a+v·b) − ab − v·ab) + 2ab·w.
func (t *Tower) E12Square(z, x *E12) {
	var ab, s, vb E6
	t.E6Mul(&ab, &x.D0, &x.D1)
	t.E6Add(&s, &x.D0, &x.D1)
	t.E6MulByV(&vb, &x.D1)
	t.E6Add(&vb, &vb, &x.D0)
	t.E6Mul(&s, &s, &vb)
	t.E6Sub(&s, &s, &ab)
	t.E6Add(&z.D1, &ab, &ab)
	t.E6MulByV(&ab, &ab)
	t.E6Sub(&z.D0, &s, &ab)
}

// mulBy034 sets z = z·(c0 + c3·w + c4·v·w), the shape of a Miller-loop
// line on the D-type twist: 13 Fp2 products against E12Mul's 18. With
// z = a + b·w and c = c3 + c4·v,
// z·line = (a·c0 + v·b·c) + ((a+b)(c0+c) − a·c0 − b·c)·w.
func (t *Tower) mulBy034(z *E12, c0, c3, c4 *E2) {
	var a, b, d E6
	var s E2
	t.e6MulByE2(&a, &z.D0, c0)
	t.e6MulBy01(&b, &z.D1, c3, c4)
	t.E2Add(&s, c0, c3)
	t.E6Add(&d, &z.D0, &z.D1)
	t.e6MulBy01(&d, &d, &s, c4)
	t.E6Sub(&d, &d, &a)
	t.E6Sub(&z.D1, &d, &b)
	t.E6MulByV(&b, &b)
	t.E6Add(&z.D0, &a, &b)
}

// cyclotomicSquare sets z = x² for x in the cyclotomic subgroup (the
// image of the easy part of the final exponentiation) by Granger–Scott,
// eprint 2009/565 §3.2: nine Fp2 squarings where E12Square costs twelve
// Fp2 products. Fp12 is read as Fp4³ over the coordinate pairs
// (D0.C0, D1.C1), (D1.C0, D0.C2), (D0.C1, D1.C2); each pair (g, h) squares
// in Fp4 to (g² + ξh², 2gh), and on the subgroup the result is
// 3·square ∓ 2·x coordinate-wise. It is wrong outside the subgroup; z may
// alias x.
func (t *Tower) cyclotomicSquare(z, x *E12) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 E2
	t.E2Square(&t0, &x.D1.C1)
	t.E2Square(&t1, &x.D0.C0)
	t.E2Add(&t6, &x.D1.C1, &x.D0.C0)
	t.E2Square(&t6, &t6)
	t.E2Sub(&t6, &t6, &t0)
	t.E2Sub(&t6, &t6, &t1) // 2·D0.C0·D1.C1
	t.E2Square(&t2, &x.D0.C2)
	t.E2Square(&t3, &x.D1.C0)
	t.E2Add(&t7, &x.D0.C2, &x.D1.C0)
	t.E2Square(&t7, &t7)
	t.E2Sub(&t7, &t7, &t2)
	t.E2Sub(&t7, &t7, &t3) // 2·D1.C0·D0.C2
	t.E2Square(&t4, &x.D1.C2)
	t.E2Square(&t5, &x.D0.C1)
	t.E2Add(&t8, &x.D1.C2, &x.D0.C1)
	t.E2Square(&t8, &t8)
	t.E2Sub(&t8, &t8, &t4)
	t.E2Sub(&t8, &t8, &t5)
	t.E2MulByXi(&t8, &t8) // 2ξ·D0.C1·D1.C2

	t.E2MulByXi(&t0, &t0)
	t.E2Add(&t0, &t0, &t1) // D0.C0² + ξ·D1.C1²
	t.E2MulByXi(&t2, &t2)
	t.E2Add(&t2, &t2, &t3) // D1.C0² + ξ·D0.C2²
	t.E2MulByXi(&t4, &t4)
	t.E2Add(&t4, &t4, &t5) // D0.C1² + ξ·D1.C2²

	t.e2ThreeSMinus2X(&z.D0.C0, &t0, &x.D0.C0)
	t.e2ThreeSMinus2X(&z.D0.C1, &t2, &x.D0.C1)
	t.e2ThreeSMinus2X(&z.D0.C2, &t4, &x.D0.C2)
	t.e2ThreeSPlus2X(&z.D1.C0, &t8, &x.D1.C0)
	t.e2ThreeSPlus2X(&z.D1.C1, &t6, &x.D1.C1)
	t.e2ThreeSPlus2X(&z.D1.C2, &t7, &x.D1.C2)
}

// e2ThreeSMinus2X sets z = 3s − 2x.
func (t *Tower) e2ThreeSMinus2X(z, s, x *E2) {
	t.E2Sub(z, s, x)
	t.E2Double(z, z)
	t.E2Add(z, z, s)
}

// e2ThreeSPlus2X sets z = 3s + 2x.
func (t *Tower) e2ThreeSPlus2X(z, s, x *E2) {
	t.E2Add(z, s, x)
	t.E2Double(z, z)
	t.E2Add(z, z, s)
}

// E12Conjugate sets z = (d0, −d1), which equals x^(p⁶).
func (t *Tower) E12Conjugate(z, x *E12) {
	z.D0 = x.D0
	t.E6Neg(&z.D1, &x.D1)
}

// E12Inv sets z = x⁻¹ = (d0 − d1·w)/(d0² − v·d1²).
func (t *Tower) E12Inv(z, x *E12) {
	var t0, t1 E6
	t.E6Square(&t0, &x.D0)
	t.E6Square(&t1, &x.D1)
	t.E6MulByV(&t1, &t1)
	t.E6Sub(&t0, &t0, &t1)
	t.E6Inv(&t0, &t0)
	t.E6Neg(&t1, &x.D1)
	t.E6Mul(&z.D0, &x.D0, &t0)
	t.E6Mul(&z.D1, &t1, &t0)
}

// E12Exp sets z = x^e for a non-negative exponent.
func (t *Tower) E12Exp(z, x *E12, e *big.Int) {
	acc, base := t.E12One(), *x
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			t.E12Mul(&acc, &acc, &base)
		}
		t.E12Square(&base, &base)
	}
	*z = acc
}
