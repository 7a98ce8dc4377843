package pairing

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"distmsm/internal/curve"
)

func engine(t testing.TB) *Pairing {
	t.Helper()
	e, err := NewBN254()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestE2FieldAxioms(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(1))
	f := e.Fp
	for iter := 0; iter < 30; iter++ {
		a := E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}
		b := E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}
		c := E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}
		ab, ba := tw.E2Zero(), tw.E2Zero()
		tw.E2Mul(&ab, &a, &b)
		tw.E2Mul(&ba, &b, &a)
		if !tw.E2Equal(&ab, &ba) {
			t.Fatal("E2 mul not commutative")
		}
		// associativity
		l, r := tw.E2Zero(), tw.E2Zero()
		tw.E2Mul(&l, &ab, &c)
		tw.E2Mul(&r, &b, &c)
		tw.E2Mul(&r, &a, &r)
		if !tw.E2Equal(&l, &r) {
			t.Fatal("E2 mul not associative")
		}
		// square == mul
		sq, mm := tw.E2Zero(), tw.E2Zero()
		tw.E2Square(&sq, &a)
		tw.E2Mul(&mm, &a, &a)
		if !tw.E2Equal(&sq, &mm) {
			t.Fatal("E2 square != mul")
		}
		// inverse
		if !tw.E2IsZero(&a) {
			inv := tw.E2Zero()
			tw.E2Inv(&inv, &a)
			tw.E2Mul(&inv, &inv, &a)
			one := tw.E2One()
			if !tw.E2Equal(&inv, &one) {
				t.Fatal("E2 inverse wrong")
			}
		}
		// u² = -1: (0+u)² = -1
		u := E2{A1: fe(f.One())}
		u2 := tw.E2Zero()
		tw.E2Square(&u2, &u)
		negOne := tw.E2One()
		tw.E2Neg(&negOne, &negOne)
		if !tw.E2Equal(&u2, &negOne) {
			t.Fatal("u² != -1")
		}
	}
}

func TestE6E12Axioms(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(2))
	f := e.Fp
	randE2 := func() E2 { return E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))} }
	randE6 := func() E6 { return E6{randE2(), randE2(), randE2()} }
	randE12 := func() E12 { return E12{randE6(), randE6()} }

	for iter := 0; iter < 10; iter++ {
		a, b, c := randE6(), randE6(), randE6()
		// distributivity in E6
		l, r, s := tw.E6Zero(), tw.E6Zero(), tw.E6Zero()
		tw.E6Add(&s, &b, &c)
		tw.E6Mul(&l, &a, &s)
		tw.E6Mul(&r, &a, &b)
		tw.E6Mul(&s, &a, &c)
		tw.E6Add(&r, &r, &s)
		if !tw.E6Equal(&l, &r) {
			t.Fatal("E6 not distributive")
		}
		// E6 inverse
		inv := tw.E6Zero()
		tw.E6Inv(&inv, &a)
		tw.E6Mul(&inv, &inv, &a)
		one6 := tw.E6One()
		if !tw.E6Equal(&inv, &one6) {
			t.Fatal("E6 inverse wrong")
		}
		// v³ = ξ: cube v and compare with ξ embedded in C0.
		v := tw.E6Zero()
		v.C1 = tw.E2One()
		v3 := tw.E6Zero()
		tw.E6Mul(&v3, &v, &v)
		tw.E6Mul(&v3, &v3, &v)
		xi := E2{fe(f.FromUint64(9)), fe(f.One())}
		want := tw.E6Zero()
		want.C0 = xi
		if !tw.E6Equal(&v3, &want) {
			t.Fatal("v³ != ξ")
		}
		// MulByV agrees with multiplication by v.
		mv, direct := tw.E6Zero(), tw.E6Zero()
		tw.E6MulByV(&mv, &a)
		tw.E6Mul(&direct, &a, &v)
		if !tw.E6Equal(&mv, &direct) {
			t.Fatal("MulByV mismatch")
		}

		// E12
		x, y := randE12(), randE12()
		xy, yx := tw.E12Zero(), tw.E12Zero()
		tw.E12Mul(&xy, &x, &y)
		tw.E12Mul(&yx, &y, &x)
		if !tw.E12Equal(&xy, &yx) {
			t.Fatal("E12 mul not commutative")
		}
		invX := tw.E12Zero()
		tw.E12Inv(&invX, &x)
		tw.E12Mul(&invX, &invX, &x)
		if !tw.E12IsOne(&invX) {
			t.Fatal("E12 inverse wrong")
		}
		// w² = v: square (0,1) and compare to v in D0.
		w := tw.E12Zero()
		w.D1 = tw.E6One()
		w2 := tw.E12Zero()
		tw.E12Square(&w2, &w)
		wantW := tw.E12Zero()
		wantW.D0.C1 = tw.E2One()
		if !tw.E12Equal(&w2, &wantW) {
			t.Fatal("w² != v")
		}
	}
}

// TestE12SquareMatchesMul pins complex squaring to the generic product,
// including the aliased form the Miller loop and exponentiation use.
func TestE12SquareMatchesMul(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(12))
	for iter := 0; iter < 20; iter++ {
		x := randE12(e, rnd)
		var sq, mul E12
		tw.E12Square(&sq, &x)
		tw.E12Mul(&mul, &x, &x)
		if sq != mul {
			t.Fatal("E12Square(x) != E12Mul(x, x)")
		}
		tw.E12Square(&x, &x)
		if x != mul {
			t.Fatal("aliased E12Square disagrees")
		}
	}
}

func TestE12ExpHomomorphic(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(3))
	f := e.Fp
	x := E12{
		E6{E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}},
		E6{E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}},
	}
	a, b := big.NewInt(123457), big.NewInt(987651)
	xa, xb, xab, prod := tw.E12Zero(), tw.E12Zero(), tw.E12Zero(), tw.E12Zero()
	tw.E12Exp(&xa, &x, a)
	tw.E12Exp(&xb, &x, b)
	tw.E12Mul(&prod, &xa, &xb)
	tw.E12Exp(&xab, &x, new(big.Int).Add(a, b))
	if !tw.E12Equal(&prod, &xab) {
		t.Fatal("x^a · x^b != x^(a+b)")
	}
}

func TestG2GroupLaw(t *testing.T) {
	e := engine(t)
	g2 := e.G2
	gen := &g2.Gen
	if !g2.IsOnCurve(gen) {
		t.Fatal("G2 generator off twist")
	}
	// 2G + G == 3G
	two := g2.ScalarMul(gen, big.NewInt(2))
	three := g2.ScalarMul(gen, big.NewInt(3))
	sum := g2.Add(&two, gen)
	if !g2.Equal(&sum, &three) {
		t.Fatal("2G + G != 3G")
	}
	if !g2.IsOnCurve(&three) {
		t.Fatal("3G off twist")
	}
	// G + (−G) == O
	neg := g2.Neg(gen)
	inf := g2.Add(gen, &neg)
	if !inf.Inf {
		t.Fatal("G + (-G) != O")
	}
	// r·G == O — validates the subgroup order.
	rG := g2.ScalarMul(gen, e.Fr.Modulus)
	if !rG.Inf {
		t.Fatal("r·G2 != O: generator order wrong")
	}
}

func TestG2MSMMatchesNaive(t *testing.T) {
	e := engine(t)
	g2 := e.G2
	rnd := rand.New(rand.NewSource(4))
	n := 6
	points := make([]G2Affine, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		k := new(big.Int).Rand(rnd, e.Fr.Modulus)
		points[i] = g2.ScalarMul(&g2.Gen, big.NewInt(int64(i+2)))
		scalars[i] = k
	}
	got, err := g2.MSMContext(context.Background(), points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	want := G2Affine{Inf: true}
	for i := range points {
		term := g2.ScalarMul(&points[i], scalars[i])
		want = g2.Add(&want, &term)
	}
	if !g2.Equal(&got, &want) {
		t.Fatal("G2 MSM mismatch")
	}
	// empty MSM
	if out, err := g2.MSMContext(context.Background(), nil, nil); err != nil || !out.Inf {
		t.Fatal("empty G2 MSM should be O")
	}
}

func TestPairingBilinear(t *testing.T) {
	e := engine(t)
	tw := e.T
	g1 := &e.Curve.Gen
	g2 := &e.G2.Gen

	base := e.Pair(g1, g2)
	if tw.E12IsOne(&base) {
		t.Fatal("e(G1, G2) == 1: degenerate pairing")
	}
	// e(G1,G2)^r == 1 (lands in μ_r)
	toR := tw.E12Zero()
	tw.E12Exp(&toR, &base, e.Fr.Modulus)
	if !tw.E12IsOne(&toR) {
		t.Fatal("pairing value not in mu_r")
	}

	a, b := big.NewInt(31337), big.NewInt(271828)
	adder := e.Curve.NewAdder()
	w := (e.Curve.ScalarBits + 63) / 64
	aP := e.Curve.ToAffine(adder.ScalarMul(g1, natFromBig(a, w)))
	bQ := e.G2.ScalarMul(g2, b)

	lhs := e.Pair(&aP, &bQ)
	want := tw.E12Zero()
	tw.E12Exp(&want, &base, new(big.Int).Mul(a, b))
	if !tw.E12Equal(&lhs, &want) {
		t.Fatal("e(aP, bQ) != e(P,Q)^(ab)")
	}

	// e(aP, Q) == e(P, aQ)
	aQ := e.G2.ScalarMul(g2, a)
	l2 := e.Pair(&aP, g2)
	r2 := e.Pair(g1, &aQ)
	if !tw.E12Equal(&l2, &r2) {
		t.Fatal("e(aP, Q) != e(P, aQ)")
	}
}

func TestPairingInfinity(t *testing.T) {
	e := engine(t)
	tw := e.T
	infG1 := curve.PointAffine{Inf: true}
	infG2 := G2Affine{Inf: true}
	if v := e.Pair(&infG1, &e.G2.Gen); !tw.E12IsOne(&v) {
		t.Fatal("e(O, Q) != 1")
	}
	if v := e.Pair(&e.Curve.Gen, &infG2); !tw.E12IsOne(&v) {
		t.Fatal("e(P, O) != 1")
	}
}

func TestPairingProduct(t *testing.T) {
	e := engine(t)
	tw := e.T
	g1, g2 := &e.Curve.Gen, &e.G2.Gen
	// e(P,Q)·e(−P,Q) == 1
	negP := curve.PointAffine{X: g1.X.Clone(), Y: g1.Y.Clone()}
	e.Curve.NegAffine(&negP)
	out, err := e.PairingProduct(
		[]curve.PointAffine{*g1, negP},
		[]G2Affine{*g2, *g2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !tw.E12IsOne(&out) {
		t.Fatal("e(P,Q)·e(-P,Q) != 1")
	}
	if _, err := e.PairingProduct(nil, []G2Affine{*g2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func natFromBig(v *big.Int, width int) []uint64 {
	out := make([]uint64, width)
	w := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := 0; i < width; i++ {
		out[i] = new(big.Int).And(w, mask).Uint64()
		w.Rsh(w, 64)
	}
	return out
}

func BenchmarkPairing(b *testing.B) {
	e := engine(b)
	for i := 0; i < b.N; i++ {
		e.Pair(&e.Curve.Gen, &e.G2.Gen)
	}
}

// The structured easy/hard final exponentiation must agree with the
// plain (p^12-1)/r reference exponent.
func TestFinalExponentiationMatchesReference(t *testing.T) {
	e := engine(t)
	tw := e.T
	f := e.MillerLoop(&e.Curve.Gen, &e.G2.Gen)
	fast := e.FinalExponentiation(&f)
	ref := tw.E12Zero()
	tw.E12Exp(&ref, &f, e.ReferenceFinalExp())
	if !tw.E12Equal(&fast, &ref) {
		t.Fatal("structured final exponentiation != reference")
	}
}

func TestFrobeniusP2IsHomomorphism(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(11))
	f := e.Fp
	randE12 := func() E12 {
		return E12{
			E6{E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}},
			E6{E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}, E2{fe(f.Rand(rnd)), fe(f.Rand(rnd))}},
		}
	}
	x, y := randE12(), randE12()
	// frob(x*y) == frob(x)*frob(y)
	xy, l, fx, fy, r := tw.E12Zero(), tw.E12Zero(), tw.E12Zero(), tw.E12Zero(), tw.E12Zero()
	tw.E12Mul(&xy, &x, &y)
	e.FrobeniusP2(&l, &xy)
	e.FrobeniusP2(&fx, &x)
	e.FrobeniusP2(&fy, &y)
	tw.E12Mul(&r, &fx, &fy)
	if !tw.E12Equal(&l, &r) {
		t.Fatal("FrobeniusP2 is not multiplicative")
	}
	// frob is x^(p^2): check against plain exponentiation.
	p2 := new(big.Int).Mul(e.Fp.Modulus, e.Fp.Modulus)
	want := tw.E12Zero()
	tw.E12Exp(&want, &x, p2)
	if !tw.E12Equal(&fx, &want) {
		t.Fatal("FrobeniusP2 != x^(p^2)")
	}
}

// TestMultiMillerLoopMatchesProduct: one shared loop over k pairs,
// after the final exponentiation, equals the product of the one-pair
// pairings, with pairs at infinity skipped (and k + 2 > 4 pairs taking
// the loop's heap path).
func TestMultiMillerLoopMatchesProduct(t *testing.T) {
	e := engine(t)
	tw := e.T
	adder := e.Curve.NewAdder()
	w := (e.Curve.ScalarBits + 63) / 64
	var ps []curve.PointAffine
	var qs []G2Affine
	for k := 1; k <= 4; k++ {
		a, b := big.NewInt(int64(1000*k+7)), big.NewInt(int64(31*k+5))
		ps = append(ps, e.Curve.ToAffine(adder.ScalarMul(&e.Curve.Gen, natFromBig(a, w))))
		qs = append(qs, e.G2.ScalarMul(&e.G2.Gen, b))

		want := tw.E12One()
		for i := range ps {
			v := e.Pair(&ps[i], &qs[i])
			tw.E12Mul(&want, &want, &v)
		}
		withInf := append([]curve.PointAffine{{Inf: true}, ps[0]}, ps...)
		withInfQ := append([]G2Affine{e.G2.Gen, {Inf: true}}, qs...)
		for _, in := range []struct {
			ps []curve.PointAffine
			qs []G2Affine
		}{{ps, qs}, {withInf, withInfQ}} {
			f := e.millerLoop(in.ps, in.qs)
			if got := e.FinalExponentiation(&f); got != want {
				t.Fatalf("k=%d (%d pairs given): FE(multi-Miller loop) != Π e(P_i, Q_i)", k, len(in.ps))
			}
		}
	}
}

// TestMulBy034MatchesMul pins the sparse line product to the dense one.
func TestMulBy034MatchesMul(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20; iter++ {
		f := randE12(e, rnd)
		c0, c3, c4 := randE2(e, rnd), randE2(e, rnd), randE2(e, rnd)
		line := E12{D0: E6{C0: c0}, D1: E6{C0: c3, C1: c4}}
		var want E12
		tw.E12Mul(&want, &f, &line)
		tw.mulBy034(&f, &c0, &c3, &c4)
		if f != want {
			t.Fatal("mulBy034 != E12Mul by the dense line")
		}
	}
}

// cyclotomic maps x into the cyclotomic subgroup by the easy part of
// the final exponentiation, x^((p⁶−1)(p²+1)).
func cyclotomic(e *Pairing, x *E12) E12 {
	tw := e.T
	var inv, y, z E12
	tw.E12Inv(&inv, x)
	tw.E12Conjugate(&y, x)
	tw.E12Mul(&y, &y, &inv)
	e.FrobeniusP2(&z, &y)
	tw.E12Mul(&z, &z, &y)
	return z
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(14))
	for iter := 0; iter < 20; iter++ {
		x0 := randE12(e, rnd)
		x := cyclotomic(e, &x0)
		var want E12
		tw.E12Square(&want, &x)
		tw.cyclotomicSquare(&x, &x)
		if x != want {
			t.Fatal("cyclotomicSquare != E12Square on the cyclotomic subgroup")
		}
	}
}

func TestFrobeniusPIsPower(t *testing.T) {
	e := engine(t)
	tw := e.T
	rnd := rand.New(rand.NewSource(15))
	x := randE12(e, rnd)
	var want, fx, ffx, fx2 E12
	tw.E12Exp(&want, &x, e.Fp.Modulus)
	e.FrobeniusP(&fx, &x)
	if fx != want {
		t.Fatal("FrobeniusP(x) != x^p")
	}
	e.FrobeniusP(&ffx, &fx)
	e.FrobeniusP2(&fx2, &x)
	if ffx != fx2 {
		t.Fatal("FrobeniusP(FrobeniusP(x)) != FrobeniusP2(x)")
	}
}
