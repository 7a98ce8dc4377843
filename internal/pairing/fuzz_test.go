package pairing

import (
	"math/big"
	"math/rand"
	"testing"
)

// bigE2 is a test-only math/big model of Fp2 = Fp[u]/(u²+1): the oracle
// the value-typed tower is fuzzed against.
type bigE2 struct{ a0, a1 *big.Int }

func (e *Pairing) bigOf(x *E2) bigE2 {
	return bigE2{e.Fp.ToBig(x.A0[:]), e.Fp.ToBig(x.A1[:])}
}

func bigE2Mul(p *big.Int, x, y bigE2) bigE2 {
	a0 := new(big.Int).Mul(x.a0, y.a0)
	a0.Sub(a0, new(big.Int).Mul(x.a1, y.a1)).Mod(a0, p)
	a1 := new(big.Int).Mul(x.a0, y.a1)
	a1.Add(a1, new(big.Int).Mul(x.a1, y.a0)).Mod(a1, p)
	return bigE2{a0, a1}
}

// bigE2Inv returns (a0 − a1·u)/(a0² + a1²), or zero for zero.
func bigE2Inv(p *big.Int, x bigE2) bigE2 {
	n := new(big.Int).Mul(x.a0, x.a0)
	n.Add(n, new(big.Int).Mul(x.a1, x.a1)).Mod(n, p)
	if n.Sign() == 0 {
		return bigE2{new(big.Int), new(big.Int)}
	}
	n.ModInverse(n, p)
	a0 := new(big.Int).Mul(x.a0, n)
	a1 := new(big.Int).Neg(x.a1)
	return bigE2{a0.Mod(a0, p), a1.Mul(a1, n).Mod(a1, p)}
}

func (x bigE2) equal(y bigE2) bool { return x.a0.Cmp(y.a0) == 0 && x.a1.Cmp(y.a1) == 0 }

// FuzzTowerParity checks E2 multiplication, squaring and inversion
// against the math/big model, and x·x⁻¹ = 1 in E6 and E12 for elements
// built from the same coordinates plus seeded random ones.
func FuzzTowerParity(f *testing.F) {
	e, err := NewBN254()
	if err != nil {
		f.Fatal(err)
	}
	tw, p := e.T, e.Fp.Modulus
	pm1 := new(big.Int).Sub(p, big.NewInt(1)).Bytes()
	f.Add([]byte{0}, []byte{0}, []byte{0}, []byte{0}, int64(0))
	f.Add([]byte{1}, []byte{0}, []byte{0}, []byte{1}, int64(1))
	f.Add(pm1, pm1, pm1, []byte{1}, int64(2))
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 []byte, seed int64) {
		mk := func(lo, hi []byte) E2 {
			return E2{fe(e.Fp.FromBig(new(big.Int).SetBytes(lo))), fe(e.Fp.FromBig(new(big.Int).SetBytes(hi)))}
		}
		x, y := mk(a0, a1), mk(b0, b1)
		bx, by := e.bigOf(&x), e.bigOf(&y)
		var z E2
		tw.E2Mul(&z, &x, &y)
		if !e.bigOf(&z).equal(bigE2Mul(p, bx, by)) {
			t.Fatalf("E2Mul disagrees with math/big on %v·%v", bx, by)
		}
		tw.E2Square(&z, &x)
		if !e.bigOf(&z).equal(bigE2Mul(p, bx, bx)) {
			t.Fatalf("E2Square disagrees with math/big on %v", bx)
		}
		tw.E2Inv(&z, &x)
		if !e.bigOf(&z).equal(bigE2Inv(p, bx)) {
			t.Fatalf("E2Inv disagrees with math/big on %v", bx)
		}

		rnd := rand.New(rand.NewSource(seed))
		x6 := E6{x, y, randE2(e, rnd)}
		if x6 != (E6{}) {
			var inv E6
			tw.E6Inv(&inv, &x6)
			tw.E6Mul(&inv, &inv, &x6)
			if one := tw.E6One(); inv != one {
				t.Fatal("E6: x·x⁻¹ != 1")
			}
		}
		x12 := E12{x6, E6{y, randE2(e, rnd), x}}
		var inv12 E12
		tw.E12Inv(&inv12, &x12)
		tw.E12Mul(&inv12, &inv12, &x12)
		if !tw.E12IsOne(&inv12) {
			t.Fatal("E12: x·x⁻¹ != 1")
		}
	})
}
