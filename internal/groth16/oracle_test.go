package groth16

import (
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/pairing"
)

// fe is a BN254 base-field element in Montgomery form.
type fe = [4]uint64

// tateOracle is the verifier this package used before the optimal-ate
// pairing, kept as the differential oracle for Verify: one Tate Miller
// loop f_{r,P}(ψ(Q)) per pair over the 254 bits of r with T in G1, a
// dense E12Mul per line, all four pairs of the verification equation
// (e(α, β) included, nothing cached) and the plain (p¹²−1)/r exponent
// of ReferenceFinalExp.
type tateOracle struct {
	e *Engine
	m *bigint.Mont4
}

func newTateOracle(t testing.TB, e *Engine) *tateOracle {
	t.Helper()
	m, err := bigint.NewMont4(e.P.Fp.Montgomery())
	if err != nil {
		t.Fatal(err)
	}
	return &tateOracle{e: e, m: m}
}

// verify checks e(−A, B)·e(α, β)·e(IC, γ)·e(C, δ) == 1.
func (o *tateOracle) verify(vk *VerifyingKey, proof *Proof, public []field.Element) (bool, error) {
	e := o.e
	ic, err := e.publicCommitment(vk, public)
	if err != nil {
		return false, err
	}
	negA := curve.PointAffine{X: proof.A.X.Clone(), Y: proof.A.Y.Clone(), Inf: proof.A.Inf}
	e.P.Curve.NegAffine(&negA)
	ps := []curve.PointAffine{negA, vk.Alpha, ic, proof.C}
	qs := []pairing.G2Affine{proof.B, vk.Beta2, vk.Gamma2, vk.Delta2}
	tw := e.P.T
	acc := tw.E12One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		f := o.millerLoop(&ps[i], &qs[i])
		tw.E12Mul(&acc, &acc, &f)
	}
	tw.E12Exp(&acc, &acc, e.P.ReferenceFinalExp())
	return tw.E12IsOne(&acc), nil
}

// millerLoop computes f_{r,P}(ψ(Q)) up to a factor in Fp*: T walks the
// multiples of P in Jacobian coordinates over Fp, and each line through
// T is evaluated at the untwisted ψ(Q) = (x'·w², y'·w³) scaled by the Fp
// denominator of its slope.
func (o *tateOracle) millerLoop(p *curve.PointAffine, q *pairing.G2Affine) pairing.E12 {
	tw := o.e.P.T
	px, py := (*fe)(p.X), (*fe)(p.Y)
	x, y, z := *px, *py, fe(o.e.P.Fp.One())
	inf := false
	f := tw.E12One()
	var cx, cy, c0 fe
	r := o.e.Fr.Modulus
	for i := r.BitLen() - 2; i >= 0; i-- {
		// f = f²·l_{T,T}(Q); T = 2T
		tw.E12Square(&f, &f)
		if inf {
			continue
		}
		inf = o.doubleStep(&x, &y, &z, &cx, &cy, &c0)
		o.mulLine(&f, q, &cx, &cy, &c0)
		if r.Bit(i) == 1 && !inf {
			// f = f·l_{T,P}(Q); T = T + P
			inf = o.addStep(&x, &y, &z, px, py, &cx, &cy, &c0)
			o.mulLine(&f, q, &cx, &cy, &c0)
		}
	}
	return f
}

// doubleStep sets T = (x, y, z) to 2T and (cx, cy, c0) to the tangent at
// T scaled by 2y·z³: cx = 3x²z², cy = −2y·z³, c0 = 2y² − 3x³. At y = 0 it
// returns the vertical line z²·xQ − x instead, and reports T = O.
func (o *tateOracle) doubleStep(x, y, z, cx, cy, c0 *fe) (inf bool) {
	m := o.m
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
func (o *tateOracle) addStep(x, y, z, px, py, cx, cy, c0 *fe) (inf bool) {
	m := o.m
	var zz, h, rr, hh, i, j, v fe
	m.Square(&zz, z)
	m.Mul(&h, px, &zz)
	m.Sub(&h, &h, x) // H = px·z² − x
	m.Mul(&rr, py, z)
	m.Mul(&rr, &rr, &zz)
	m.Sub(&rr, &rr, y) // py·z³ − y
	if h == (fe{}) {
		if rr == (fe{}) {
			return o.doubleStep(x, y, z, cx, cy, c0)
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
func (o *tateOracle) mulLine(f *pairing.E12, q *pairing.G2Affine, cx, cy, c0 *fe) {
	tw := o.e.P.T
	var line pairing.E12
	tw.E2MulByFp(&line.D0.C1, &q.X, cx)
	tw.E2MulByFp(&line.D1.C1, &q.Y, cy)
	line.D0.C0.A0 = *c0
	tw.E12Mul(f, f, &line)
}
