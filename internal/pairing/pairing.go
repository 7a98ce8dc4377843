package pairing

import (
	"fmt"
	"math/big"

	"distmsm/internal/curve"
	"distmsm/internal/field"
)

// Pairing is a bilinear map e: G1 × G2 → GT over BN254, realised as the
// Tate pairing: a Miller loop f_{r,P}(ψ(Q)) over the group order r with
// line functions on E(Fp), followed by the final exponentiation
// to the power (p¹² − 1)/r. Bilinearity and non-degeneracy are verified
// by the package tests.
type Pairing struct {
	Curve *curve.Curve // BN254 G1
	Fp    *field.Field
	Fr    *field.Field
	T     *Tower
	G2    *G2

	// finalExp = (p¹² − 1)/r (reference path; the structured easy/hard
	// split in finalexp.go is the default), hardPart = (p⁴ − p² + 1)/r,
	// and frobGamma[k] = γ^k for the p²-Frobenius (see FrobeniusP2).
	// All fixed at construction, so a Pairing shared by concurrent
	// verifiers (the service runs one per worker) never mutates.
	finalExp  *big.Int
	hardPart  *big.Int
	frobGamma [6]E2
}

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
	p2 := new(big.Int).Mul(p, p)
	p12 := new(big.Int).Exp(p2, big.NewInt(6), nil)
	p12.Sub(p12, big.NewInt(1))
	var rem big.Int
	if e.finalExp, _ = new(big.Int).QuoRem(p12, r, &rem); rem.Sign() != 0 {
		return nil, fmt.Errorf("pairing: r does not divide p^12 - 1 (wrong constants)")
	}
	p4 := new(big.Int).Mul(p2, p2)
	e.hardPart = p4.Sub(p4, p2).Add(p4, big.NewInt(1)).Div(p4, r)

	// γ = ξ^((p²−1)/6) and its powers.
	xi := E2{fe(c.Fp.FromUint64(9)), t.one}
	gamma := e2Exp(t, &xi, new(big.Int).Div(new(big.Int).Sub(p2, big.NewInt(1)), big.NewInt(6)))
	e.frobGamma[0] = t.E2One()
	for k := 1; k < len(e.frobGamma); k++ {
		t.E2Mul(&e.frobGamma[k], &e.frobGamma[k-1], &gamma)
	}
	return e, nil
}

// Pair computes e(P, Q). Either argument at infinity yields 1.
func (e *Pairing) Pair(p *curve.PointAffine, q *G2Affine) E12 {
	if p.Inf || q.Inf {
		return e.T.E12One()
	}
	f := e.MillerLoop(p, q)
	return e.FinalExponentiation(&f)
}

// MillerLoop computes f_{r,P}(ψ(Q)) without the final exponentiation,
// up to a factor in Fp*: T walks the multiples of P in Jacobian
// coordinates over Fp, and each line through T is evaluated at the
// untwisted ψ(Q) = (x'·w², y'·w³) scaled by the Fp denominator of its
// slope, so the loop takes no inversion. The final exponentiation kills
// Fp* ((p¹²−1)/r is a multiple of p−1), so pairings are unchanged.
func (e *Pairing) MillerLoop(p *curve.PointAffine, q *G2Affine) E12 {
	t := e.T
	px, py := (*fe)(p.X), (*fe)(p.Y)
	x, y, z := *px, *py, t.one
	inf := false
	f := t.E12One()
	var cx, cy, c0 fe
	r := e.Fr.Modulus
	for i := r.BitLen() - 2; i >= 0; i-- {
		// f = f²·l_{T,T}(Q); T = 2T
		t.E12Square(&f, &f)
		if inf {
			continue
		}
		inf = e.doubleStep(&x, &y, &z, &cx, &cy, &c0)
		e.mulLine(&f, q, &cx, &cy, &c0)
		if r.Bit(i) == 1 && !inf {
			// f = f·l_{T,P}(Q); T = T + P
			inf = e.addStep(&x, &y, &z, px, py, &cx, &cy, &c0)
			e.mulLine(&f, q, &cx, &cy, &c0)
		}
	}
	return f
}

// doubleStep sets T = (x, y, z) to 2T and (cx, cy, c0) to the tangent at
// T scaled by 2y·z³: cx = 3x²z², cy = −2y·z³, c0 = 2y² − 3x³. At y = 0 it
// returns the vertical line z²·xQ − x instead, and reports T = O.
func (e *Pairing) doubleStep(x, y, z, cx, cy, c0 *fe) (inf bool) {
	m := e.T.m
	var zz, a, b, c, d, ee fe
	m.Square(&zz, z)
	if *y == (fe{}) {
		*cx, *cy = zz, fe{}
		m.Neg(c0, x)
		return true
	}
	m.Square(&a, x)  // A = x²
	m.Square(&b, y)  // B = y²
	m.Square(&c, &b) // C = B²
	// D = 2((x+B)² − A − C)
	m.Add(&d, x, &b)
	m.Square(&d, &d)
	m.Sub(&d, &d, &a)
	m.Sub(&d, &d, &c)
	m.Double(&d, &d)
	m.Double(&ee, &a)
	m.Add(&ee, &ee, &a) // E = 3A
	m.Mul(cx, &ee, &zz)
	m.Mul(c0, &ee, x)
	m.Double(&b, &b)
	m.Sub(c0, &b, c0)
	// z3 = 2yz; cy = −z3·z²
	m.Mul(z, y, z)
	m.Double(z, z)
	m.Mul(cy, z, &zz)
	m.Neg(cy, cy)
	// x3 = E² − 2D; y3 = E(D − x3) − 8C
	m.Square(&a, &ee)
	m.Sub(x, &a, &d)
	m.Sub(x, x, &d)
	m.Sub(&d, &d, x)
	m.Mul(y, &ee, &d)
	m.Double(&c, &c)
	m.Double(&c, &c)
	m.Double(&c, &c)
	m.Sub(y, y, &c)
	return false
}

// addStep sets T = (x, y, z) to T + P for affine P = (px, py) and
// (cx, cy, c0) to the chord through P scaled by z3 = 2z·H (H = px·z² − x,
// the slope's denominator): cx = r, cy = −z3, c0 = z3·py − r·px with
// r = 2(py·z³ − y). T = P falls back to doubleStep; T = −P gives the
// vertical line z²·xQ − x and reports T = O.
func (e *Pairing) addStep(x, y, z, px, py, cx, cy, c0 *fe) (inf bool) {
	m := e.T.m
	var zz, h, rr, hh, i, j, v fe
	m.Square(&zz, z)
	m.Mul(&h, px, &zz)
	m.Sub(&h, &h, x) // H = px·z² − x
	m.Mul(&rr, py, z)
	m.Mul(&rr, &rr, &zz)
	m.Sub(&rr, &rr, y) // py·z³ − y
	if h == (fe{}) {
		if rr == (fe{}) {
			return e.doubleStep(x, y, z, cx, cy, c0)
		}
		*cx, *cy = zz, fe{}
		m.Neg(c0, x)
		return true
	}
	m.Double(&rr, &rr)
	m.Square(&hh, &h)
	m.Double(&i, &hh)
	m.Double(&i, &i) // I = 4H²
	m.Mul(&j, &h, &i)
	m.Mul(&v, x, &i)
	// z3 = (z+H)² − z² − H² = 2zH
	m.Add(z, z, &h)
	m.Square(z, z)
	m.Sub(z, z, &zz)
	m.Sub(z, z, &hh)
	*cx = rr
	m.Neg(cy, z)
	m.Mul(c0, z, py)
	m.Mul(&zz, &rr, px)
	m.Sub(c0, c0, &zz)
	// x3 = r² − J − 2V; y3 = r(V − x3) − 2y·J
	m.Square(&i, &rr)
	m.Sub(&i, &i, &j)
	m.Sub(&i, &i, &v)
	m.Sub(&i, &i, &v)
	m.Sub(&v, &v, &i)
	m.Mul(&j, y, &j)
	m.Double(&j, &j)
	m.Mul(y, &rr, &v)
	m.Sub(y, y, &j)
	*x = i
	return false
}

// mulLine sets f *= cx·xQ + cy·yQ + c0 at ψ(Q): in the tower, cx·x' fills
// the C1 slot of D0, cy·y' the C1 slot of D1, c0 the Fp constant.
func (e *Pairing) mulLine(f *E12, q *G2Affine, cx, cy, c0 *fe) {
	t := e.T
	var line E12
	t.E2MulByFp(&line.D0.C1, &q.X, cx)
	t.E2MulByFp(&line.D1.C1, &q.Y, cy)
	line.D0.C0.A0 = *c0
	t.E12Mul(f, f, &line)
}

// PairingProduct computes Π e(P_i, Q_i) with one shared final
// exponentiation — the form Groth16 verification uses.
func (e *Pairing) PairingProduct(ps []curve.PointAffine, qs []G2Affine) (E12, error) {
	if len(ps) != len(qs) {
		return E12{}, fmt.Errorf("pairing: %d G1 points but %d G2 points", len(ps), len(qs))
	}
	t := e.T
	acc := t.E12One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		f := e.MillerLoop(&ps[i], &qs[i])
		t.E12Mul(&acc, &acc, &f)
	}
	return e.FinalExponentiation(&acc), nil
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
