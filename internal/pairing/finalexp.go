package pairing

import "math/big"

// This file implements the structured final exponentiation
// f^((p¹²−1)/r) = (f^(p⁶−1))^(p²+1) raised to (p⁴−p²+1)/r:
//
//   easy part: f ← conj(f)·f⁻¹ (the p⁶-Frobenius of Fp12/Fp6 is
//              conjugation), then f ← frobᵖ²(f)·f;
//   hard part: the vectorial addition chain of Scott et al. ("On the
//              final exponentiation for calculating pairings on ordinary
//              elliptic curves", 2009), which writes (p⁴−p²+1)/r in base
//              p with coefficients polynomial in x and so costs three
//              exponentiations by the 63-bit x plus Frobenius maps.
//
// After the easy part f lies in the cyclotomic subgroup, where inversion
// is conjugation and squaring is cyclotomicSquare. The chain computes
// exactly (p⁴−p²+1)/r, not a multiple of it, so FinalExponentiation
// agrees with the plain (p¹²−1)/r exponent (ReferenceFinalExp), which the
// tests cross-check.

// e2Exp computes x^k in Fp2 by square-and-multiply.
func e2Exp(t *Tower, x *E2, k *big.Int) E2 {
	acc, base := t.E2One(), *x
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			t.E2Mul(&acc, &acc, &base)
		}
		t.E2Square(&base, &base)
	}
	return acc
}

// FrobeniusP sets z = x^p. With γ₁ = ξ^((p−1)/6), the p-power Frobenius
// conjugates every Fp2 coefficient and maps w^k ↦ γ₁^k·w^k, so the
// coefficient of v^j·w^k is conjugated and scaled by γ₁^(2j+k); the
// powers γ₁¹…γ₁⁵ are cached by NewBN254.
func (e *Pairing) FrobeniusP(z, x *E12) {
	t, pow := e.T, &e.frobGamma1
	t.E2Conjugate(&z.D0.C0, &x.D0.C0)
	t.E2Conjugate(&z.D0.C1, &x.D0.C1)
	t.E2Conjugate(&z.D0.C2, &x.D0.C2)
	t.E2Conjugate(&z.D1.C0, &x.D1.C0)
	t.E2Conjugate(&z.D1.C1, &x.D1.C1)
	t.E2Conjugate(&z.D1.C2, &x.D1.C2)
	t.E2Mul(&z.D0.C1, &z.D0.C1, &pow[2])
	t.E2Mul(&z.D0.C2, &z.D0.C2, &pow[4])
	t.E2Mul(&z.D1.C0, &z.D1.C0, &pow[1])
	t.E2Mul(&z.D1.C1, &z.D1.C1, &pow[3])
	t.E2Mul(&z.D1.C2, &z.D1.C2, &pow[5])
}

// FrobeniusP2 sets z = x^(p²). With γ = ξ^((p²−1)/6), the p²-power
// Frobenius fixes Fp2 pointwise and maps w^k ↦ γ^k·w^k, so in the basis
// {v^j·w^k} the coefficient of v^j·w^k is scaled by γ^(2j+k); the powers
// γ¹…γ⁵ are cached by NewBN254.
func (e *Pairing) FrobeniusP2(z, x *E12) {
	t, pow := e.T, &e.frobGamma
	// exponents: D0 = (c00, c10·v, c20·v²) → 0, 2, 4; D1 = w·(…) → 1, 3, 5.
	z.D0.C0 = x.D0.C0
	t.E2Mul(&z.D0.C1, &x.D0.C1, &pow[2])
	t.E2Mul(&z.D0.C2, &x.D0.C2, &pow[4])
	t.E2Mul(&z.D1.C0, &x.D1.C0, &pow[1])
	t.E2Mul(&z.D1.C1, &x.D1.C1, &pow[3])
	t.E2Mul(&z.D1.C2, &x.D1.C2, &pow[5])
}

// FinalExponentiation maps a Miller-loop output into μ_r via the
// structured easy/hard split.
func (e *Pairing) FinalExponentiation(f *E12) E12 {
	t := e.T
	// Easy part 1: f ← f^(p⁶−1) = conj(f)·f⁻¹.
	var inv, f1 E12
	t.E12Inv(&inv, f)
	t.E12Conjugate(&f1, f)
	t.E12Mul(&f1, &f1, &inv)
	// Easy part 2: f ← f^(p²+1) = frobᵖ²(f)·f.
	var f2 E12
	e.FrobeniusP2(&f2, &f1)
	t.E12Mul(&f2, &f2, &f1)
	// Hard part: exponent (p⁴ − p² + 1)/r.
	e.hardPart(&f2, &f2)
	return f2
}

// expByX sets z = x^bnX for x in the cyclotomic subgroup: cyclotomic
// squarings over the NAF of bnX, with x⁻¹ = conj(x) for the −1 digits.
// z may alias x.
func (e *Pairing) expByX(z, x *E12) {
	t := e.T
	var acc, inv E12
	acc = *x
	t.E12Conjugate(&inv, x)
	for i := len(e.xNAF) - 2; i >= 0; i-- {
		t.cyclotomicSquare(&acc, &acc)
		switch e.xNAF[i] {
		case 1:
			t.E12Mul(&acc, &acc, x)
		case -1:
			t.E12Mul(&acc, &acc, &inv)
		}
	}
	*z = acc
}

// hardPart sets z = f^((p⁴−p²+1)/r) for f in the cyclotomic subgroup.
// With f_k = f^(x^k) and the exponent λ₀ + λ₁p + λ₂p² + λ₃p³ of Scott et
// al., it assembles
//
//	y0 = f^(p+p²+p³), y1 = f⁻¹, y2 = f₂^(p²), y3 = f₁^(−p),
//	y4 = (f₁·f₂^p)⁻¹, y5 = f₂⁻¹, y6 = (f₃·f₃^p)⁻¹
//
// and combines them as y0·y1²·y2⁶·y3¹²·y4¹⁸·y5³⁰·y6³⁶ by the chain's
// squarings and products. z may alias f.
func (e *Pairing) hardPart(z, f *E12) {
	t := e.T
	var fp, fp2, fp3, fu, fu2, fu3, fu2p, fu3p E12
	var y0, y1, y2, y3, y4, y5, y6, t0, t1 E12
	e.FrobeniusP(&fp, f)
	e.FrobeniusP2(&fp2, f)
	e.FrobeniusP(&fp3, &fp2)
	e.expByX(&fu, f)
	e.expByX(&fu2, &fu)
	e.expByX(&fu3, &fu2)
	e.FrobeniusP(&y3, &fu)
	e.FrobeniusP(&fu2p, &fu2)
	e.FrobeniusP(&fu3p, &fu3)
	e.FrobeniusP2(&y2, &fu2)

	t.E12Mul(&y0, &fp, &fp2)
	t.E12Mul(&y0, &y0, &fp3)
	t.E12Conjugate(&y1, f)
	t.E12Conjugate(&y5, &fu2)
	t.E12Conjugate(&y3, &y3)
	t.E12Mul(&y4, &fu, &fu2p)
	t.E12Conjugate(&y4, &y4)
	t.E12Mul(&y6, &fu3, &fu3p)
	t.E12Conjugate(&y6, &y6)

	t.cyclotomicSquare(&t0, &y6)
	t.E12Mul(&t0, &t0, &y4)
	t.E12Mul(&t0, &t0, &y5)
	t.E12Mul(&t1, &y3, &y5)
	t.E12Mul(&t1, &t1, &t0)
	t.E12Mul(&t0, &t0, &y2)
	t.cyclotomicSquare(&t1, &t1)
	t.E12Mul(&t1, &t1, &t0)
	t.cyclotomicSquare(&t1, &t1)
	t.E12Mul(&t0, &t1, &y1)
	t.E12Mul(&t1, &t1, &y0)
	t.cyclotomicSquare(&t0, &t0)
	t.E12Mul(z, &t0, &t1)
}
