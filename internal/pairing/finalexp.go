package pairing

import "math/big"

// This file implements the structured final exponentiation
// f^((p¹²−1)/r) = (f^(p⁶−1))^(p²+1) raised to (p⁴−p²+1)/r:
//
//   easy part: f ← conj(f)·f⁻¹ (the p⁶-Frobenius of Fp12/Fp6 is
//              conjugation), then f ← frobᵖ²(f)·f;
//   hard part: one ~1016-bit exponentiation by (p⁴−p²+1)/r.
//
// After the easy part f lies in the cyclotomic subgroup, where inversion
// is conjugation. The split cuts the exponentiation work by ~2.5× versus
// the single (p¹²−1)/r exponent; both paths are kept and cross-checked.

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
	t.E12Exp(&f2, &f2, e.hardPart)
	return f2
}
