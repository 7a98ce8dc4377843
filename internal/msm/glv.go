package msm

import (
	"fmt"
	"math/big"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
)

// GLV implements the Gallant–Lambert–Vanstone endomorphism decomposition
// for j-invariant-0 curves (a = 0, p ≡ 1 mod 3): φ(x, y) = (β·x, y) with
// β a primitive cube root of unity in Fp acts as multiplication by λ, a
// cube root of unity mod r. Every term k·P splits into k₁·P + k₂·φ(P)
// with |k₁|, |k₂| ≈ √r, halving the scalar width — the "signed digits"
// companion trick of the ZPrize implementations (§6).
type GLV struct {
	c      *curve.Curve
	beta   bigint.Nat // β in Fp, Montgomery form
	lambda *big.Int
	// Reduced lattice basis (a1, b1), (a2, b2) with a + b·λ ≡ 0 mod r.
	a1, b1, a2, b2 *big.Int
	// det = a1·b2 − a2·b1 = ±r (the lattice determinant).
	det      *big.Int
	halfBits int
}

// NewGLV builds the decomposition context, or reports that the curve has
// no usable endomorphism (a ≠ 0 or missing cube roots).
func NewGLV(c *curve.Curve) (*GLV, error) {
	if !c.A.IsZero() {
		return nil, fmt.Errorf("msm: GLV needs a j-invariant-0 curve (a = 0), %s has a != 0", c.Name)
	}
	if c.ScalarField == nil {
		return nil, fmt.Errorf("msm: GLV needs a known group order for %s", c.Name)
	}
	if c.GenDerived {
		// The λ-relation only holds on the prime-order subgroup; without
		// a canonical subgroup generator the endomorphism cannot be
		// verified (and callers could not guarantee subgroup inputs).
		return nil, fmt.Errorf("msm: GLV on %s needs a canonical subgroup generator", c.Name)
	}
	r := c.ScalarField.Modulus
	p := c.Fp.Modulus
	lambda, err := cubeRootOfUnity(r)
	if err != nil {
		return nil, fmt.Errorf("msm: no cube root of unity mod r: %w", err)
	}
	betaV, err := cubeRootOfUnity(p)
	if err != nil {
		return nil, fmt.Errorf("msm: no cube root of unity mod p: %w", err)
	}
	g := &GLV{c: c, lambda: lambda}

	// Match β to λ: φ(G) must equal λ·G (otherwise use the other root,
	// β² — the two non-trivial cube roots correspond to λ and λ²).
	adder := c.NewAdder()
	w := (c.ScalarBits + 63) / 64
	want := adder.ScalarMul(&c.Gen, bigint.FromBig(lambda, w))
	for attempt := 0; attempt < 2; attempt++ {
		beta := c.Fp.FromBig(betaV)
		phiG := curve.PointAffine{X: c.Fp.NewElement(), Y: c.Gen.Y.Clone()}
		c.Fp.Mul(phiG.X, c.Gen.X, beta)
		got := c.NewXYZZ()
		c.SetAffine(got, &phiG)
		if c.EqualXYZZ(got, want) {
			g.beta = beta
			break
		}
		betaV.Mul(betaV, betaV).Mod(betaV, p) // try β²
	}
	if g.beta == nil {
		return nil, fmt.Errorf("msm: endomorphism verification failed on %s", c.Name)
	}

	// Lattice basis via the extended Euclidean algorithm on (r, λ):
	// stop at the first remainder below √r.
	g.a1, g.b1, g.a2, g.b2 = latticeBasis(r, lambda)
	g.det = new(big.Int).Mul(g.a1, g.b2)
	g.det.Sub(g.det, new(big.Int).Mul(g.a2, g.b1))
	if new(big.Int).Abs(g.det).Cmp(r) != 0 {
		return nil, fmt.Errorf("msm: GLV lattice determinant != ±r on %s", c.Name)
	}
	g.halfBits = (r.BitLen() + 1) / 2
	return g, nil
}

// cubeRootOfUnity returns a primitive cube root of unity mod m (m prime,
// m ≡ 1 mod 3): ω = (−1 + √−3)/2.
func cubeRootOfUnity(m *big.Int) (*big.Int, error) {
	if new(big.Int).Mod(m, big.NewInt(3)).Int64() != 1 {
		return nil, fmt.Errorf("modulus not 1 mod 3")
	}
	// √−3 mod m via Tonelli–Shanks on big.Int (ModSqrt).
	neg3 := new(big.Int).Sub(m, big.NewInt(3))
	s := new(big.Int).ModSqrt(neg3, m)
	if s == nil {
		return nil, fmt.Errorf("-3 is not a square")
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), m)
	w := new(big.Int).Sub(s, big.NewInt(1))
	w.Mul(w, inv2).Mod(w, m)
	// Verify order 3.
	w3 := new(big.Int).Exp(w, big.NewInt(3), m)
	if w3.Cmp(big.NewInt(1)) != 0 || w.Cmp(big.NewInt(1)) == 0 {
		return nil, fmt.Errorf("candidate is not a primitive cube root")
	}
	return w, nil
}

// latticeBasis runs the extended Euclidean algorithm on (r, λ) and
// returns two short vectors (a1, b1), (a2, b2) of the lattice
// {(a, b) : a + b·λ ≡ 0 mod r}.
func latticeBasis(r, lambda *big.Int) (a1, b1, a2, b2 *big.Int) {
	sqrtR := new(big.Int).Sqrt(r)
	// Remainder sequence r_i with coefficients t_i: r_i = s_i·r + t_i·λ.
	r0, r1 := new(big.Int).Set(r), new(big.Int).Set(lambda)
	t0, t1 := big.NewInt(0), big.NewInt(1)
	var prevR, prevT *big.Int
	for r1.Sign() != 0 {
		q := new(big.Int).Div(r0, r1)
		r2 := new(big.Int).Sub(r0, new(big.Int).Mul(q, r1))
		t2 := new(big.Int).Sub(t0, new(big.Int).Mul(q, t1))
		if r1.Cmp(sqrtR) < 0 {
			// r1 is the first remainder below √r: basis vectors are
			// (r1, −t1) and the shorter of (r0, −t0), (r2, −t2).
			a1 = new(big.Int).Set(r1)
			b1 = new(big.Int).Neg(t1)
			n0 := new(big.Int).Add(new(big.Int).Mul(r0, r0), new(big.Int).Mul(t0, t0))
			n2 := new(big.Int).Add(new(big.Int).Mul(r2, r2), new(big.Int).Mul(t2, t2))
			if n0.Cmp(n2) <= 0 {
				a2 = new(big.Int).Set(r0)
				b2 = new(big.Int).Neg(t0)
			} else {
				a2 = new(big.Int).Set(r2)
				b2 = new(big.Int).Neg(t2)
			}
			return a1, b1, a2, b2
		}
		prevR, prevT = r0, t0
		r0, t0 = r1, t1
		r1, t1 = r2, t2
	}
	_ = prevR
	_ = prevT
	// Degenerate (should not happen for prime r): identity-ish basis.
	return new(big.Int).Set(r), big.NewInt(0), new(big.Int).Set(lambda), big.NewInt(-1)
}

// Decompose splits k into (k1, k2) with k ≡ k1 + k2·λ (mod r) and both
// parts roughly √r-sized (possibly negative).
func (g *GLV) Decompose(k *big.Int) (k1, k2 *big.Int) {
	// (c1, c2) = round(k·(b2, −b1)/det); (k1, k2) = (k,0) − c1·v1 − c2·v2.
	c1 := roundedDiv(new(big.Int).Mul(g.b2, k), g.det)
	c2 := roundedDiv(new(big.Int).Neg(new(big.Int).Mul(g.b1, k)), g.det)
	k1 = new(big.Int).Sub(k, new(big.Int).Mul(c1, g.a1))
	k1.Sub(k1, new(big.Int).Mul(c2, g.a2))
	k2 = new(big.Int).Neg(new(big.Int).Mul(c1, g.b1))
	k2.Sub(k2, new(big.Int).Mul(c2, g.b2))
	return k1, k2
}

// roundedDiv returns round(a/b) for b != 0.
func roundedDiv(a, b *big.Int) *big.Int {
	if b.Sign() < 0 {
		a = new(big.Int).Neg(a)
		b = new(big.Int).Neg(b)
	}
	two := big.NewInt(2)
	num := new(big.Int).Mul(a, two)
	num.Add(num, b)
	num.Div(num, new(big.Int).Mul(b, two))
	return num
}

// HalfBits returns the bit width of the decomposition halves, ⌈log₂√r⌉.
// Callers recoding the halves should budget HalfBits()+4 bits: the
// rounded lattice reduction can overshoot √r by a small factor.
func (g *GLV) HalfBits() int { return g.halfBits }

// SplitPoints returns the 2N-point GLV base vector
// [P_0, …, P_{n−1}, φ(P_0), …, φ(P_{n−1})]: the fixed, scalar-independent
// half of the endomorphism split (the signs of the decomposed scalars are
// per-MSM and handled by the caller). All points must lie in the
// prime-order subgroup.
func (g *GLV) SplitPoints(points []curve.PointAffine) []curve.PointAffine {
	out := make([]curve.PointAffine, 2*len(points))
	copy(out, points)
	for i := range points {
		out[len(points)+i] = g.Phi(&points[i])
	}
	return out
}

// DecomposeNat splits the scalar k (interpreted mod r) into magnitude and
// sign halves: k ≡ ±|k1| ± |k2|·λ (mod r), with both magnitudes at most
// HalfBits()+4 bits wide. The returned Nats are sized for that width, so
// they recode directly against a HalfBits()+4-bit scalar field.
func (g *GLV) DecomposeNat(k bigint.Nat) (k1 bigint.Nat, neg1 bool, k2 bigint.Nat, neg2 bool, err error) {
	b := k.ToBig()
	b.Mod(b, g.c.ScalarField.Modulus)
	b1, b2 := g.Decompose(b)
	if b1.Sign() < 0 {
		neg1 = true
		b1.Neg(b1)
	}
	if b2.Sign() < 0 {
		neg2 = true
		b2.Neg(b2)
	}
	bits := g.halfBits + 4
	if b1.BitLen() > bits || b2.BitLen() > bits {
		return nil, false, nil, false, fmt.Errorf("msm: GLV half-scalar too wide (%d/%d bits)", b1.BitLen(), b2.BitLen())
	}
	w := (bits + 63) / 64
	return bigint.FromBig(b1, w), neg1, bigint.FromBig(b2, w), neg2, nil
}

// Phi applies the endomorphism to an affine point: (x, y) → (β·x, y).
func (g *GLV) Phi(p *curve.PointAffine) curve.PointAffine {
	if p.Inf {
		return curve.PointAffine{Inf: true}
	}
	out := curve.PointAffine{X: g.c.Fp.NewElement(), Y: p.Y.Clone()}
	g.c.Fp.Mul(out.X, p.X, g.beta)
	return out
}
