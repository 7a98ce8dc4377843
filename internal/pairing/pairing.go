package pairing

import (
	"fmt"
	"math/big"

	"distmsm/internal/curve"
	"distmsm/internal/field"
)

// Pairing is a bilinear map e: G1 × G2 → GT over BN254, realised as the
// optimal-ate pairing: one Miller loop f_{6x+2,Q}(P) over the 66-digit
// NAF of the 65-bit 6x+2, with T walking the multiples of Q on the
// D-type twist, closed by the lines through π(Q) and −π²(Q), then the
// final exponentiation to the power (p¹² − 1)/r. Bilinearity and
// non-degeneracy are verified by the package tests.
type Pairing struct {
	Curve *curve.Curve // BN254 G1
	Fp    *field.Field
	Fr    *field.Field
	T     *Tower
	G2    *G2

	// finalExp = (p¹² − 1)/r (reference path; the structured easy/hard
	// split in finalexp.go is the default); frobGamma1[k] = γ₁^k for the
	// p-Frobenius and frobGamma[k] = γ^k for the p²-Frobenius (see
	// FrobeniusP, FrobeniusP2); ateNAF and xNAF are the signed digits of
	// the loop length 6x+2 and of the curve parameter x, least
	// significant first. All fixed at construction, so a Pairing shared
	// by concurrent verifiers (the service runs one per worker) never
	// mutates.
	finalExp   *big.Int
	frobGamma1 [6]E2
	frobGamma  [6]E2
	ateNAF     []int8
	xNAF       []int8
}

// bnX is the BN254 curve parameter: p = 36x⁴+36x³+24x²+6x+1 and
// r = 36x⁴+36x³+18x²+6x+1.
const bnX = 4965661367192848881

// NewBN254 constructs the pairing engine.
func NewBN254() (*Pairing, error) {
	c, err := curve.ByName("BN254")
	if err != nil {
		return nil, err
	}
	t, err := NewTower(c.Fp)
	if err != nil {
		return nil, err
	}
	e := &Pairing{Curve: c, Fp: c.Fp, Fr: c.ScalarField, T: t, G2: NewG2(t)}
	if !e.G2.IsOnCurve(&e.G2.Gen) {
		return nil, fmt.Errorf("pairing: embedded G2 generator is not on the twist")
	}
	p, r := c.Fp.Modulus, c.ScalarField.Modulus
	x := new(big.Int).SetUint64(bnX)
	if bnPoly(x, 24).Cmp(p) != 0 || bnPoly(x, 18).Cmp(r) != 0 {
		return nil, fmt.Errorf("pairing: x does not generate the BN254 p and r")
	}
	p2 := new(big.Int).Mul(p, p)
	p12 := new(big.Int).Exp(p2, big.NewInt(6), nil)
	p12.Sub(p12, big.NewInt(1))
	var rem big.Int
	if e.finalExp, _ = new(big.Int).QuoRem(p12, r, &rem); rem.Sign() != 0 {
		return nil, fmt.Errorf("pairing: r does not divide p^12 - 1 (wrong constants)")
	}
	e.xNAF = naf(x)
	e.ateNAF = naf(new(big.Int).Add(new(big.Int).Mul(x, big.NewInt(6)), big.NewInt(2)))

	// γ₁ = ξ^((p−1)/6), γ = ξ^((p²−1)/6) and their powers.
	xi := E2{fe(c.Fp.FromUint64(9)), t.one}
	six, one := big.NewInt(6), big.NewInt(1)
	gamma1 := e2Exp(t, &xi, new(big.Int).Div(new(big.Int).Sub(p, one), six))
	gamma := e2Exp(t, &xi, new(big.Int).Div(new(big.Int).Sub(p2, one), six))
	e.frobGamma1[0], e.frobGamma[0] = t.E2One(), t.E2One()
	for k := 1; k < len(e.frobGamma); k++ {
		t.E2Mul(&e.frobGamma1[k], &e.frobGamma1[k-1], &gamma1)
		t.E2Mul(&e.frobGamma[k], &e.frobGamma[k-1], &gamma)
	}
	return e, nil
}

// bnPoly returns 36x⁴ + 36x³ + c·x² + 6x + 1.
func bnPoly(x *big.Int, c int64) *big.Int {
	v := big.NewInt(36)
	for _, k := range []int64{36, c, 6, 1} {
		v.Mul(v, x).Add(v, big.NewInt(k))
	}
	return v
}

// naf returns the non-adjacent form of k > 0, least significant digit
// first; the top digit is 1.
func naf(k *big.Int) []int8 {
	k = new(big.Int).Set(k)
	var out []int8
	for k.Sign() > 0 {
		var d int8
		if k.Bit(0) == 1 {
			d = 1 // k ≡ 1 mod 4
			if k.Bit(1) == 1 {
				d = -1 // k ≡ 3 mod 4
			}
			k.Sub(k, big.NewInt(int64(d)))
		}
		out = append(out, d)
		k.Rsh(k, 1)
	}
	return out
}

// Pair computes e(P, Q). Either argument at infinity yields 1.
func (e *Pairing) Pair(p *curve.PointAffine, q *G2Affine) E12 {
	if p.Inf || q.Inf {
		return e.T.E12One()
	}
	f := e.MillerLoop(p, q)
	return e.FinalExponentiation(&f)
}

// MillerLoop computes the optimal-ate Miller loop of one pair without
// the final exponentiation, up to a factor the final exponentiation
// kills; a pair with a point at infinity gives 1.
func (e *Pairing) MillerLoop(p *curve.PointAffine, q *G2Affine) E12 {
	return e.millerLoop([]curve.PointAffine{*p}, []G2Affine{*q})
}

// PairingProduct computes Π e(P_i, Q_i) with one shared Miller loop and
// one final exponentiation — the form Groth16 verification uses. Pairs
// with a point at infinity contribute 1.
func (e *Pairing) PairingProduct(ps []curve.PointAffine, qs []G2Affine) (E12, error) {
	if len(ps) != len(qs) {
		return E12{}, fmt.Errorf("pairing: %d G1 points but %d G2 points", len(ps), len(qs))
	}
	f := e.millerLoop(ps, qs)
	return e.FinalExponentiation(&f), nil
}

// millerPair is one pair's state in the multi-Miller loop: P affine over
// Fp, Q affine on the twist, and T = [k]Q in homogeneous projective
// coordinates (x = X/Z, y = Y/Z), so the loop takes no inversion.
type millerPair struct {
	px, py     fe
	q          G2Affine
	tx, ty, tz E2
}

// millerLoop is the optimal-ate multi-Miller loop over len(ps) pairs:
// every pair shares f and its one squaring per step, and each line
// multiplies f through the sparse mulBy034. Lines are scaled by Fp2
// factors the final exponentiation kills ((p¹²−1)/r is a multiple of
// p²−1).
func (e *Pairing) millerLoop(ps []curve.PointAffine, qs []G2Affine) E12 {
	t := e.T
	var buf [4]millerPair
	pairs := buf[:0]
	if len(ps) > len(buf) {
		pairs = make([]millerPair, 0, len(ps))
	}
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		q := qs[i]
		pairs = append(pairs, millerPair{
			px: *(*fe)(ps[i].X), py: *(*fe)(ps[i].Y),
			q: q, tx: q.X, ty: q.Y, tz: t.E2One(),
		})
	}
	f := t.E12One()
	if len(pairs) == 0 {
		return f
	}
	var c0, c3, c4 E2
	top := len(e.ateNAF) - 1
	for i := top - 1; i >= 0; i-- {
		if i < top-1 {
			t.E12Square(&f, &f)
		}
		for j := range pairs {
			s := &pairs[j]
			e.doubleStep(s, &c0, &c3, &c4)
			t.mulBy034(&f, &c0, &c3, &c4)
			if d := e.ateNAF[i]; d != 0 {
				q := s.q
				if d < 0 {
					t.E2Neg(&q.Y, &q.Y)
				}
				e.addStep(s, &q, &c0, &c3, &c4)
				t.mulBy034(&f, &c0, &c3, &c4)
			}
		}
	}
	// Close with the lines through Q₁ = π(Q) and −Q₂ = −π²(Q): on the
	// twist π(x, y) = (x̄·γ₁², ȳ·γ₁³) and π²(x, y) = (x·γ², y·γ³).
	var q1, q2 G2Affine
	for j := range pairs {
		s := &pairs[j]
		t.E2Conjugate(&q1.X, &s.q.X)
		t.E2Mul(&q1.X, &q1.X, &e.frobGamma1[2])
		t.E2Conjugate(&q1.Y, &s.q.Y)
		t.E2Mul(&q1.Y, &q1.Y, &e.frobGamma1[3])
		e.addStep(s, &q1, &c0, &c3, &c4)
		t.mulBy034(&f, &c0, &c3, &c4)
		t.E2Mul(&q2.X, &s.q.X, &e.frobGamma[2])
		t.E2Mul(&q2.Y, &s.q.Y, &e.frobGamma[3])
		t.E2Neg(&q2.Y, &q2.Y)
		e.addStep(s, &q2, &c0, &c3, &c4)
		t.mulBy034(&f, &c0, &c3, &c4)
	}
	return f
}

// doubleStep evaluates the tangent at T on P as c0 + c3·w + c4·v·w and
// sets T = 2T (Costello–Lange–Naehrig doubling on y² = x³ + b', eprint
// 2009/615, with the result scaled by 4 to avoid halvings). With
// B = Y², E = 3b'Z² and H = 2YZ, the tangent scaled by −2YZ is
// c0 = −H·yP, c3 = 3X²·xP, c4 = E − B.
func (e *Pairing) doubleStep(s *millerPair, c0, c3, c4 *E2) {
	t := e.T
	var a, b, c, ee, f, h, j E2
	t.E2Mul(&a, &s.tx, &s.ty) // A = XY
	t.E2Square(&b, &s.ty)     // B = Y²
	t.E2Square(&c, &s.tz)     // C = Z²
	t.E2Double(&ee, &c)
	t.E2Add(&ee, &ee, &c)
	t.E2Mul(&ee, &ee, &e.G2.B) // E = 3b'Z²
	t.E2Double(&f, &ee)
	t.E2Add(&f, &f, &ee) // F = 3E
	t.E2Add(&h, &s.ty, &s.tz)
	t.E2Square(&h, &h)
	t.E2Sub(&h, &h, &b)
	t.E2Sub(&h, &h, &c)   // H = (Y+Z)² − B − C = 2YZ
	t.E2Square(&j, &s.tx) // J = X²

	t.E2Neg(c0, &h)
	t.E2MulByFp(c0, c0, &s.py)
	t.E2Double(c3, &j)
	t.E2Add(c3, c3, &j)
	t.E2MulByFp(c3, c3, &s.px)
	t.E2Sub(c4, &ee, &b)

	// 2T scaled by 4: X = 2A(B − F), Y = (B + F)² − 12E², Z = 4B·H.
	var g E2
	t.E2Sub(&g, &b, &f)
	t.E2Mul(&s.tx, &a, &g)
	t.E2Double(&s.tx, &s.tx)
	t.E2Add(&g, &b, &f)
	t.E2Square(&g, &g)
	t.E2Square(&ee, &ee)
	t.E2Double(&j, &ee)
	t.E2Add(&j, &j, &ee)
	t.E2Double(&j, &j)
	t.E2Double(&j, &j) // 12E²
	t.E2Sub(&s.ty, &g, &j)
	t.E2Mul(&s.tz, &b, &h)
	t.E2Double(&s.tz, &s.tz)
	t.E2Double(&s.tz, &s.tz)
}

// addStep evaluates the chord through T and the affine twist point q on
// P as c0 + c3·w + c4·v·w and sets T = T + q (mixed homogeneous
// addition). With O = Y − y_q·Z and L = X − x_q·Z, the chord scaled by L
// is c0 = L·yP, c3 = −O·xP, c4 = O·x_q − L·y_q.
func (e *Pairing) addStep(s *millerPair, q *G2Affine, c0, c3, c4 *E2) {
	t := e.T
	var o, l, c, d, ee, f, g, h, tmp E2
	t.E2Mul(&tmp, &q.Y, &s.tz)
	t.E2Sub(&o, &s.ty, &tmp) // O
	t.E2Mul(&tmp, &q.X, &s.tz)
	t.E2Sub(&l, &s.tx, &tmp) // L

	t.E2MulByFp(c0, &l, &s.py)
	t.E2Neg(c3, &o)
	t.E2MulByFp(c3, c3, &s.px)
	t.E2Mul(c4, &o, &q.X)
	t.E2Mul(&tmp, &l, &q.Y)
	t.E2Sub(c4, c4, &tmp)

	t.E2Square(&c, &o)
	t.E2Square(&d, &l)
	t.E2Mul(&ee, &l, &d)   // E = L³
	t.E2Mul(&f, &s.tz, &c) // F = Z·O²
	t.E2Mul(&g, &s.tx, &d) // G = X·L²
	t.E2Add(&h, &ee, &f)
	t.E2Sub(&h, &h, &g)
	t.E2Sub(&h, &h, &g) // H = E + F − 2G
	// X = L·H, Y = O(G − H) − Y·E, Z = Z·E
	t.E2Mul(&s.tx, &l, &h)
	t.E2Sub(&tmp, &g, &h)
	t.E2Mul(&tmp, &tmp, &o)
	t.E2Mul(&s.ty, &s.ty, &ee)
	t.E2Sub(&s.ty, &tmp, &s.ty)
	t.E2Mul(&s.tz, &s.tz, &ee)
}

// ReferenceFinalExp exposes the plain (p¹²−1)/r exponent for cross-checks.
func (e *Pairing) ReferenceFinalExp() *big.Int { return new(big.Int).Set(e.finalExp) }

// G2InSubgroup reports whether a twist point lies in G2, the order-r
// subgroup: [r]Q = O. The twist's group order is a large multiple of r,
// so a decoder must check this beyond IsOnCurve.
func (e *Pairing) G2InSubgroup(q *G2Affine) bool {
	rq := e.G2.ScalarMul(q, e.Fr.Modulus)
	return rq.Inf
}
