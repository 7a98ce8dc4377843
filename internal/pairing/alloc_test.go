package pairing

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"distmsm/internal/curve"
)

// TestTowerAllocFree pins the value-typed tower: every E2/E12 operation,
// every G2 point operation, the Miller loop and the final exponentiation
// run on stack locals. A regression here is what used to make one proof
// cost 1.7 M allocations.
func TestTowerAllocFree(t *testing.T) {
	e := engine(t)
	tw, g2 := e.T, e.G2
	rnd := rand.New(rand.NewSource(31))
	x2, y2 := randE2(e, rnd), randE2(e, rnd)
	x12, y12 := randE12(e, rnd), randE12(e, rnd)
	q := g2.ScalarMul(&g2.Gen, big.NewInt(7))
	jac := g2.FromAffine(&g2.Gen)
	g2.Double(&jac)
	var z2 E2
	var z12, f E12
	var acc G2Jacobian
	ps := []curve.PointAffine{e.Curve.Gen, e.Curve.Gen, e.Curve.Gen}
	qs := []G2Affine{q, g2.Gen, q}
	cyc := cyclotomic(e, &x12)
	cases := []struct {
		op string
		fn func()
	}{
		{"E2Mul", func() { tw.E2Mul(&z2, &x2, &y2) }},
		{"E12Mul", func() { tw.E12Mul(&z12, &x12, &y12) }},
		{"E12Square", func() { tw.E12Square(&z12, &x12) }},
		{"AddMixed", func() { acc = jac; g2.AddMixed(&acc, &q) }},
		{"AddJac", func() { acc = jac; g2.AddJac(&acc, &jac) }},
		{"Double", func() { acc = jac; g2.Double(&acc) }},
		{"MillerLoop", func() { f = e.MillerLoop(&e.Curve.Gen, &q) }},
		{"FinalExponentiation", func() { z12 = e.FinalExponentiation(&f) }},
		{"multiMillerLoop", func() { f = e.millerLoop(ps, qs) }},
		{"FrobeniusP", func() { e.FrobeniusP(&z12, &x12) }},
		{"cyclotomicSquare", func() { tw.cyclotomicSquare(&z12, &cyc) }},
		{"hardPart", func() { e.hardPart(&z12, &cyc) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(5, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", tc.op, allocs)
		}
	}
}

// TestG2MSMAllocs: the uncached G2 MSM allocates its digit matrix and its
// bucket array, and nothing per point or per window.
func TestG2MSMAllocs(t *testing.T) {
	e := engine(t)
	points, scalars := g2MSMInput(e, 66)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := e.G2.MSMContext(context.Background(), points, scalars); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("G2.MSMContext allocates %.1f objects/op, want ≤ 4", allocs)
	}
}

func randE2(e *Pairing, rnd *rand.Rand) E2 {
	return E2{fe(e.Fp.Rand(rnd)), fe(e.Fp.Rand(rnd))}
}

func randE12(e *Pairing, rnd *rand.Rand) E12 {
	r6 := func() E6 { return E6{randE2(e, rnd), randE2(e, rnd), randE2(e, rnd)} }
	return E12{r6(), r6()}
}

// g2MSMInput returns n distinct G2 points and uniform scalars in Fr.
func g2MSMInput(e *Pairing, n int) ([]G2Affine, []*big.Int) {
	rnd := rand.New(rand.NewSource(int64(n)))
	points := make([]G2Affine, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		points[i] = e.G2.ScalarMul(&e.G2.Gen, big.NewInt(int64(i+2)))
		scalars[i] = new(big.Int).Rand(rnd, e.Fr.Modulus)
	}
	return points, scalars
}

func BenchmarkE12Mul(b *testing.B) {
	e := engine(b)
	rnd := rand.New(rand.NewSource(32))
	x, y := randE12(e, rnd), randE12(e, rnd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.T.E12Mul(&x, &x, &y)
	}
}

// BenchmarkG2MSM is the prover's uncached B2 MSM at the benchmark
// circuit's size (64 constraints → 66 variables).
func BenchmarkG2MSM(b *testing.B) {
	e := engine(b)
	points, scalars := g2MSMInput(e, 66)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.G2.MSMContext(context.Background(), points, scalars); err != nil {
			b.Fatal(err)
		}
	}
}
