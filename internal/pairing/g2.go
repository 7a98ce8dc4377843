package pairing

import (
	"context"
	"math/big"
	"math/bits"

	"distmsm/internal/field"
)

// G2Affine is an affine point on the sextic twist E'/Fp2:
// y² = x³ + 3/(9+u).
type G2Affine struct {
	X, Y E2
	Inf  bool
}

// G2Jacobian is a Jacobian-coordinate point on the twist (Z = 0 at
// infinity; the zero value is the point at infinity).
type G2Jacobian struct {
	X, Y, Z E2
}

// G2 provides arithmetic on the twist group.
type G2 struct {
	T *Tower
	// B is the twist coefficient b' = 3/ξ.
	B E2
	// Gen is the canonical BN254 G2 generator.
	Gen G2Affine
}

// bn254 G2 generator coordinates (the alt_bn128 values).
const (
	g2x0Dec = "10857046999023057135944570762232829481370756359578518086990519993285655852781"
	g2x1Dec = "11559732032986387107991004021392285783925812861821192530917403151452391805634"
	g2y0Dec = "8495653923123431417604973247489272438418190587263600148770280649306958101930"
	g2y1Dec = "4082367875863433681332203403145435568316851327593401208105741076214120093531"
)

// NewG2 builds the twist group for the BN254 base field.
func NewG2(t *Tower) *G2 {
	f := t.F
	g := &G2{T: t}
	// b' = 3/(9+u)
	xi := E2{fe(f.FromUint64(9)), t.one}
	t.E2Inv(&g.B, &xi)
	three := fe(f.FromUint64(3))
	t.E2MulByFp(&g.B, &g.B, &three)

	dec := func(s string) fe { return fe(f.FromBig(mustBig(s))) }
	g.Gen = G2Affine{
		X: E2{dec(g2x0Dec), dec(g2x1Dec)},
		Y: E2{dec(g2y0Dec), dec(g2y1Dec)},
	}
	return g
}

func mustBig(dec string) *big.Int {
	v, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic("pairing: bad integer literal")
	}
	return v
}

// IsOnCurve reports whether an affine point satisfies the twist equation.
func (g *G2) IsOnCurve(p *G2Affine) bool {
	if p.Inf {
		return true
	}
	t := g.T
	var lhs, rhs E2
	t.E2Square(&lhs, &p.Y)
	t.E2Square(&rhs, &p.X)
	t.E2Mul(&rhs, &rhs, &p.X)
	t.E2Add(&rhs, &rhs, &g.B)
	return lhs == rhs
}

// FromAffine lifts an affine point to Jacobian coordinates.
func (g *G2) FromAffine(p *G2Affine) G2Jacobian {
	if p.Inf {
		return G2Jacobian{}
	}
	return G2Jacobian{X: p.X, Y: p.Y, Z: g.T.E2One()}
}

// ToAffine normalises a Jacobian point (one Fp2 inversion).
func (g *G2) ToAffine(p *G2Jacobian) G2Affine {
	t := g.T
	if t.E2IsZero(&p.Z) {
		return G2Affine{Inf: true}
	}
	var zInv, zInv2 E2
	t.E2Inv(&zInv, &p.Z)
	t.E2Square(&zInv2, &zInv)
	t.E2Mul(&zInv, &zInv2, &zInv)
	var out G2Affine
	t.E2Mul(&out.X, &p.X, &zInv2)
	t.E2Mul(&out.Y, &p.Y, &zInv)
	return out
}

// Double sets p = 2p (a = 0 Jacobian doubling).
func (g *G2) Double(p *G2Jacobian) {
	t := g.T
	if t.E2IsZero(&p.Z) {
		return
	}
	var a, b, c, d, e, f E2
	t.E2Square(&a, &p.X) // A = X²
	t.E2Square(&b, &p.Y) // B = Y²
	t.E2Square(&c, &b)   // C = B²
	// D = 2((X+B)² − A − C)
	t.E2Add(&d, &p.X, &b)
	t.E2Square(&d, &d)
	t.E2Sub(&d, &d, &a)
	t.E2Sub(&d, &d, &c)
	t.E2Double(&d, &d)
	// E = 3A, F = E²
	t.E2Double(&e, &a)
	t.E2Add(&e, &e, &a)
	t.E2Square(&f, &e)
	// Z3 = 2YZ (before X/Y are overwritten)
	t.E2Mul(&p.Z, &p.Y, &p.Z)
	t.E2Double(&p.Z, &p.Z)
	// X3 = F − 2D
	t.E2Sub(&p.X, &f, &d)
	t.E2Sub(&p.X, &p.X, &d)
	// Y3 = E(D − X3) − 8C
	t.E2Sub(&d, &d, &p.X)
	t.E2Mul(&p.Y, &e, &d)
	t.E2Double(&c, &c)
	t.E2Double(&c, &c)
	t.E2Double(&c, &c)
	t.E2Sub(&p.Y, &p.Y, &c)
}

// AddMixed sets p += q for affine q (madd-2007-bl with edge handling).
func (g *G2) AddMixed(p *G2Jacobian, q *G2Affine) {
	t := g.T
	if q.Inf {
		return
	}
	if t.E2IsZero(&p.Z) {
		*p = g.FromAffine(q)
		return
	}
	var z1z1, u2, s2, h, rr E2
	t.E2Square(&z1z1, &p.Z)
	t.E2Mul(&u2, &q.X, &z1z1)
	t.E2Mul(&s2, &q.Y, &p.Z)
	t.E2Mul(&s2, &s2, &z1z1)
	t.E2Sub(&h, &u2, &p.X)
	t.E2Sub(&rr, &s2, &p.Y)
	if t.E2IsZero(&h) {
		if t.E2IsZero(&rr) {
			g.Double(p)
			return
		}
		*p = G2Jacobian{}
		return
	}
	t.E2Double(&rr, &rr) // r = 2(S2 − Y1)
	var hh, i, j, v, x3 E2
	t.E2Square(&hh, &h)
	t.E2Double(&i, &hh)
	t.E2Double(&i, &i) // I = 4HH
	t.E2Mul(&j, &h, &i)
	t.E2Mul(&v, &p.X, &i)
	// Z3 = (Z1+H)² − Z1Z1 − HH
	t.E2Add(&p.Z, &p.Z, &h)
	t.E2Square(&p.Z, &p.Z)
	t.E2Sub(&p.Z, &p.Z, &z1z1)
	t.E2Sub(&p.Z, &p.Z, &hh)
	// X3 = r² − J − 2V
	t.E2Square(&x3, &rr)
	t.E2Sub(&x3, &x3, &j)
	t.E2Sub(&x3, &x3, &v)
	t.E2Sub(&x3, &x3, &v)
	// Y3 = r(V − X3) − 2·Y1·J
	t.E2Sub(&v, &v, &x3)
	t.E2Mul(&j, &p.Y, &j)
	t.E2Mul(&p.Y, &rr, &v)
	t.E2Double(&j, &j)
	t.E2Sub(&p.Y, &p.Y, &j)
	p.X = x3
}

// ScalarMul returns k·q by double-and-add.
func (g *G2) ScalarMul(q *G2Affine, k *big.Int) G2Affine {
	var acc G2Jacobian
	for i := k.BitLen() - 1; i >= 0; i-- {
		g.Double(&acc)
		if k.Bit(i) == 1 {
			g.AddMixed(&acc, q)
		}
	}
	return g.ToAffine(&acc)
}

// ScalarMulFr returns k·q for a scalar-field element.
func (g *G2) ScalarMulFr(q *G2Affine, fr *field.Field, k field.Element) G2Affine {
	return g.ScalarMul(q, fr.ToBig(k))
}

// Add returns p + q in affine form.
func (g *G2) Add(p, q *G2Affine) G2Affine {
	acc := g.FromAffine(p)
	g.AddMixed(&acc, q)
	return g.ToAffine(&acc)
}

// Neg returns −p.
func (g *G2) Neg(p *G2Affine) G2Affine {
	if p.Inf {
		return G2Affine{Inf: true}
	}
	out := G2Affine{X: p.X}
	g.T.E2Neg(&out.Y, &p.Y)
	return out
}

// Equal reports whether two affine points are equal.
func (g *G2) Equal(p, q *G2Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X == q.X && p.Y == q.Y
}

// MSMContext computes Σ k_i·Q_i by Horner over signed-digit windows:
// per window, every point lands in a Jacobian bucket (|digit| buckets,
// negated for negative digits), sumBuckets folds the buckets, and the
// window sum joins the accumulator after s doublings — so the whole MSM
// costs one Fp2 inversion, in the final ToAffine. The window s grows
// with log n (≈ ½·log₂ n + 2, near the minimum of ⌈b/s⌉·(n + 2^s) for
// the prover's n). ctx is honoured at every window boundary and every 64
// scalars inside the scatter loop, so a cancellation lands within O(64)
// bucket additions instead of waiting out the whole MSM.
func (g *G2) MSMContext(ctx context.Context, points []G2Affine, scalars []*big.Int) (G2Affine, error) {
	if err := ctx.Err(); err != nil {
		return G2Affine{Inf: true}, err
	}
	maxBits := 0
	for _, k := range scalars {
		maxBits = max(maxBits, k.BitLen())
	}
	if maxBits == 0 {
		return G2Affine{Inf: true}, nil
	}
	s := bits.Len(uint(len(scalars)))/2 + 2
	nWin := (maxBits+s-1)/s + 1 // +1: signed-digit carry window
	digits := make([]int32, len(scalars)*nWin)
	for i, k := range scalars {
		signedDigitsBig(k, maxBits, s, digits[i*nWin:i*nWin])
	}
	buckets := make([]G2Jacobian, 1<<(s-1))
	var acc G2Jacobian
	for j := nWin - 1; j >= 0; j-- {
		if err := ctx.Err(); err != nil {
			return G2Affine{Inf: true}, err
		}
		for b := 0; b < s; b++ {
			g.Double(&acc)
		}
		clear(buckets)
		for i := range scalars {
			if i&63 == 0 {
				if err := ctx.Err(); err != nil {
					return G2Affine{Inf: true}, err
				}
			}
			g.addSigned(buckets, &points[i], digits[i*nWin+j])
		}
		sum := g.sumBuckets(buckets)
		g.AddJac(&acc, &sum)
	}
	return g.ToAffine(&acc), nil
}
