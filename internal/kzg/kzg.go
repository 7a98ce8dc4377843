// Package kzg implements the KZG polynomial commitment scheme over
// BN254 — the primitive the paper names as MSM's home ("MSM plays a
// pivotal role in polynomial commitments for zkSNARK", §2.2). Committing
// is exactly an MSM over the structured reference string, so the
// commitment path accepts the same pluggable MSM backend as the Groth16
// prover and can run on the simulated multi-GPU DistMSM engine.
package kzg

import (
	"fmt"
	"math/rand"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/msm"
	"distmsm/internal/pairing"
	"distmsm/internal/transcript"
)

// SRS is the structured reference string: powers of a secret τ in G1 and
// τ·G2 for the pairing check.
type SRS struct {
	// G1 holds τ^i·G for i = 0..Degree.
	G1 []curve.PointAffine
	// TauG2 is τ·H for the verifier's pairing equation.
	TauG2 pairing.G2Affine
}

// Degree returns the largest committable polynomial degree.
func (s *SRS) Degree() int { return len(s.G1) - 1 }

// MSMFunc computes one commitment MSM; Scheme.MSM takes one to route
// commitments through DistMSM.
type MSMFunc func(points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error)

// Scheme is a KZG commitment engine.
type Scheme struct {
	P  *pairing.Pairing
	Fr *field.Field
	// MSM overrides the commitment multi-scalar multiplication
	// (nil = CPU Pippenger).
	MSM MSMFunc
}

// NewScheme builds the BN254 KZG engine.
func NewScheme() (*Scheme, error) {
	p, err := pairing.NewBN254()
	if err != nil {
		return nil, err
	}
	return &Scheme{P: p, Fr: p.Fr}, nil
}

// Setup runs the (simulated) powers-of-tau ceremony for the given degree
// bound, discarding τ. The G1 powers are produced with a fixed-base comb
// and batch normalisation.
func (s *Scheme) Setup(degree int, rnd *rand.Rand) (*SRS, error) {
	if degree < 1 {
		return nil, fmt.Errorf("kzg: degree must be >= 1, got %d", degree)
	}
	fr := s.Fr
	tau := fr.Rand(rnd)
	if tau.IsZero() {
		tau = fr.One()
	}
	srs := &SRS{G1: make([]curve.PointAffine, degree+1)}
	comb := s.P.Curve.NewComb(&s.P.Curve.Gen, 8)
	pw := fr.One()
	tmp := fr.NewElement()
	jac := make([]*curve.PointXYZZ, degree+1)
	for i := 0; i <= degree; i++ {
		jac[i] = comb.Mul(frNat(fr, pw))
		fr.Mul(tmp, pw, tau)
		pw.Set(tmp)
	}
	srs.G1 = s.P.Curve.BatchToAffine(jac)
	srs.TauG2 = s.P.G2.ScalarMulFr(&s.P.G2.Gen, fr, tau)
	return srs, nil
}

func frNat(fr *field.Field, k field.Element) bigint.Nat {
	return bigint.FromBig(fr.ToBig(k), fr.Width())
}

func (s *Scheme) msm(points []curve.PointAffine, coeffs []field.Element) (*curve.PointXYZZ, error) {
	fn := s.MSM
	if fn == nil {
		fn = func(ps []curve.PointAffine, ks []bigint.Nat) (*curve.PointXYZZ, error) {
			return msm.MSM(s.P.Curve, ps, ks, msm.Config{Signed: true})
		}
	}
	ks := make([]bigint.Nat, len(coeffs))
	for i, c := range coeffs {
		ks[i] = frNat(s.Fr, c)
	}
	return fn(points[:len(coeffs)], ks)
}

// Commit computes C = Σ coeffs[i]·τ^i·G — one MSM over the SRS.
func (s *Scheme) Commit(srs *SRS, coeffs []field.Element) (curve.PointAffine, error) {
	if len(coeffs) == 0 || len(coeffs) > len(srs.G1) {
		return curve.PointAffine{}, fmt.Errorf("kzg: polynomial degree %d exceeds SRS degree %d",
			len(coeffs)-1, srs.Degree())
	}
	acc, err := s.msm(srs.G1, coeffs)
	if err != nil {
		return curve.PointAffine{}, err
	}
	return s.P.Curve.ToAffine(acc), nil
}

// Open evaluates p at z and produces the witness commitment
// W = Commit((p(X) − p(z))/(X − z)) via synthetic division.
func (s *Scheme) Open(srs *SRS, coeffs []field.Element, z field.Element) (y field.Element, proof curve.PointAffine, err error) {
	fr := s.Fr
	if len(coeffs) == 0 {
		return nil, curve.PointAffine{}, fmt.Errorf("kzg: empty polynomial")
	}
	// Horner evaluation and synthetic division in one pass:
	// q_{i} = c_{i+1} + z·q_{i+1}, remainder = p(z).
	q := make([]field.Element, len(coeffs)-1)
	acc := coeffs[len(coeffs)-1].Clone()
	tmp := fr.NewElement()
	for i := len(coeffs) - 2; i >= 0; i-- {
		if i < len(q) {
			q[i] = acc.Clone()
		}
		fr.Mul(tmp, acc, z)
		fr.Add(acc, tmp, coeffs[i])
	}
	y = acc
	if len(q) == 0 {
		// Constant polynomial: witness is the zero polynomial.
		return y, curve.PointAffine{Inf: true}, nil
	}
	proof, err = s.Commit(srs, q)
	return y, proof, err
}

// Verify checks the opening (z, y, W) against commitment C:
// e(C − y·G, H) · e(−W, τ·H − z·H) == 1.
func (s *Scheme) Verify(srs *SRS, commitment curve.PointAffine, z, y field.Element, proof curve.PointAffine) (bool, error) {
	c := s.P.Curve
	fr := s.Fr
	adder := c.NewAdder()

	// A = C − y·G  (G1)
	yG := adder.ScalarMul(&c.Gen, frNat(fr, y))
	c.Neg(yG)
	accA := c.NewXYZZ()
	c.SetAffine(accA, &commitment)
	adder.Add(accA, yG)
	aAff := c.ToAffine(accA)

	// B = τ·H − z·H  (G2)
	zH := s.P.G2.ScalarMulFr(&s.P.G2.Gen, fr, z)
	negZH := s.P.G2.Neg(&zH)
	bG2 := s.P.G2.Add(&srs.TauG2, &negZH)

	negW := curve.PointAffine{Inf: proof.Inf}
	if !proof.Inf {
		negW = curve.PointAffine{X: proof.X.Clone(), Y: proof.Y.Clone()}
		c.NegAffine(&negW)
	}
	out, err := s.P.PairingProduct(
		[]curve.PointAffine{aAff, negW},
		[]pairing.G2Affine{s.P.G2.Gen, bG2},
	)
	if err != nil {
		return false, err
	}
	return s.P.T.E12IsOne(&out), nil
}

// BatchOpen opens several polynomials at one point z with a single
// aggregated witness: a Fiat–Shamir challenge γ folds the polynomials
// into Σ γ^i·p_i before the division.
func (s *Scheme) BatchOpen(srs *SRS, polys [][]field.Element, z field.Element) (ys []field.Element, proof curve.PointAffine, err error) {
	fr := s.Fr
	if len(polys) == 0 {
		return nil, curve.PointAffine{}, fmt.Errorf("kzg: no polynomials")
	}
	ys = make([]field.Element, len(polys))
	maxLen := 0
	for i, p := range polys {
		if len(p) == 0 {
			return nil, curve.PointAffine{}, fmt.Errorf("kzg: empty polynomial %d", i)
		}
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	tr := transcript.New("kzg-batch")
	tr.Append("z", fr.ToBig(z).Bytes())
	for i, p := range polys {
		y := evalPoly(fr, p, z)
		ys[i] = y
		tr.Append(fmt.Sprintf("y%d", i), fr.ToBig(y).Bytes())
	}
	gamma := tr.Challenge("gamma", fr)

	// folded = Σ γ^i·p_i ; foldedY = Σ γ^i·y_i
	folded := make([]field.Element, maxLen)
	for j := range folded {
		folded[j] = fr.NewElement()
	}
	pw := fr.One()
	tmp := fr.NewElement()
	for _, p := range polys {
		for j, cj := range p {
			fr.Mul(tmp, cj, pw)
			fr.Add(folded[j], folded[j], tmp)
		}
		fr.Mul(tmp, pw, gamma)
		pw.Set(tmp)
	}
	_, proof, err = s.Open(srs, folded, z)
	return ys, proof, err
}

// BatchVerify checks a batch opening against the individual commitments.
func (s *Scheme) BatchVerify(srs *SRS, commitments []curve.PointAffine, z field.Element, ys []field.Element, proof curve.PointAffine) (bool, error) {
	fr := s.Fr
	c := s.P.Curve
	if len(commitments) != len(ys) {
		return false, fmt.Errorf("kzg: %d commitments but %d evaluations", len(commitments), len(ys))
	}
	if len(commitments) == 0 {
		return false, fmt.Errorf("kzg: empty batch")
	}
	// Re-derive γ from the same transcript.
	tr := transcript.New("kzg-batch")
	tr.Append("z", fr.ToBig(z).Bytes())
	for i, y := range ys {
		tr.Append(fmt.Sprintf("y%d", i), fr.ToBig(y).Bytes())
	}
	gamma := tr.Challenge("gamma", fr)

	// Folded commitment Σ γ^i·C_i and evaluation Σ γ^i·y_i.
	adder := c.NewAdder()
	accC := c.NewXYZZ()
	foldedY := fr.NewElement()
	pw := fr.One()
	tmp := fr.NewElement()
	for i := range commitments {
		term := adder.ScalarMul(&commitments[i], frNat(fr, pw))
		adder.Add(accC, term)
		fr.Mul(tmp, ys[i], pw)
		fr.Add(foldedY, foldedY, tmp)
		fr.Mul(tmp, pw, gamma)
		pw.Set(tmp)
	}
	return s.Verify(srs, c.ToAffine(accC), z, foldedY, proof)
}

func evalPoly(f *field.Field, coeffs []field.Element, x field.Element) field.Element {
	acc := f.NewElement()
	tmp := f.NewElement()
	for i := len(coeffs) - 1; i >= 0; i-- {
		f.Mul(tmp, acc, x)
		f.Add(acc, tmp, coeffs[i])
	}
	return acc
}
