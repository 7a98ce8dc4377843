package pairing

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func TestG2AddJacMatchesAddMixed(t *testing.T) {
	e := engine(t)
	g2 := e.G2
	p := g2.ScalarMul(&g2.Gen, big.NewInt(5))
	q := g2.ScalarMul(&g2.Gen, big.NewInt(9))

	sum := g2.FromAffine(&p)
	qj := g2.FromAffine(&q)
	// Put q on a non-trivial Z to exercise the general formulas.
	g2.Double(&qj)
	g2.AddJac(&qj, &qj)
	half := g2.ScalarMul(&q, big.NewInt(4)) // qj is now 4q
	if aff := g2.ToAffine(&qj); !g2.Equal(&aff, &half) {
		t.Fatal("AddJac doubling path wrong")
	}
	g2.AddJac(&sum, &qj)
	want := g2.ScalarMul(&g2.Gen, big.NewInt(5+4*9))
	if aff := g2.ToAffine(&sum); !g2.Equal(&aff, &want) {
		t.Fatal("AddJac general path wrong")
	}

	// Identity edges: O + P, P + O, P + (−P).
	inf := g2.FromAffine(&G2Affine{Inf: true})
	g2.AddJac(&inf, &sum)
	if aff, saff := g2.ToAffine(&inf), g2.ToAffine(&sum); !g2.Equal(&aff, &saff) {
		t.Fatal("O + P != P")
	}
	pj := g2.FromAffine(&p)
	g2.AddJac(&pj, &G2Jacobian{X: e.T.E2One(), Y: e.T.E2One(), Z: e.T.E2Zero()})
	if aff := g2.ToAffine(&pj); !g2.Equal(&aff, &p) {
		t.Fatal("P + O != P")
	}
	neg := g2.Neg(&p)
	nj := g2.FromAffine(&neg)
	g2.AddJac(&pj, &nj)
	if aff := g2.ToAffine(&pj); !aff.Inf {
		t.Fatal("P + (−P) != O")
	}
}

func TestG2PrecomputedMSMMatchesWindowed(t *testing.T) {
	e := engine(t)
	g2 := e.G2
	rnd := rand.New(rand.NewSource(11))
	const n = 7
	points := make([]G2Affine, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		points[i] = g2.ScalarMul(&g2.Gen, big.NewInt(int64(3*i+2)))
		scalars[i] = new(big.Int).Rand(rnd, e.Fr.Modulus)
	}
	// Edge scalars: zero, one, r−1.
	scalars[0] = big.NewInt(0)
	scalars[1] = big.NewInt(1)
	scalars[2] = new(big.Int).Sub(e.Fr.Modulus, big.NewInt(1))
	points[3] = G2Affine{Inf: true}

	pre := g2.Precompute(points, 0, e.Fr.Modulus.BitLen())
	if pre.N() != n || pre.MemoryBytes() <= 0 {
		t.Fatalf("accessors: N=%d mem=%d", pre.N(), pre.MemoryBytes())
	}
	got, err := pre.MSMContext(context.Background(), scalars)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g2.MSMContext(context.Background(), points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(&got, &want) {
		t.Fatal("precomputed G2 MSM disagrees with windowed MSM")
	}

	// Different window size, same answer.
	pre6 := g2.Precompute(points, 6, e.Fr.Modulus.BitLen())
	got6, err := pre6.MSMContext(context.Background(), scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(&got6, &want) {
		t.Fatal("s=6 precomputed G2 MSM disagrees")
	}
}

// TestG2MSMContextCancel: both G2 MSM forms observe a dead context —
// the windowed MSM between windows/scalars, the precomputed MSM inside
// its scatter loop — and agree with each other on a live context.
func TestG2MSMContextCancel(t *testing.T) {
	e := engine(t)
	g2 := e.G2
	rnd := rand.New(rand.NewSource(23))
	const n = 80
	points := make([]G2Affine, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		points[i] = g2.ScalarMul(&g2.Gen, big.NewInt(int64(2*i+1)))
		scalars[i] = new(big.Int).Rand(rnd, e.Fr.Modulus)
	}
	pre := g2.Precompute(points, 0, e.Fr.Modulus.BitLen())

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g2.MSMContext(dead, points, scalars); !errors.Is(err, context.Canceled) {
		t.Fatalf("windowed MSM: want context.Canceled, got %v", err)
	}
	if _, err := pre.MSMContext(dead, scalars); !errors.Is(err, context.Canceled) {
		t.Fatalf("precomputed MSM: want context.Canceled, got %v", err)
	}

	want, err := g2.MSMContext(context.Background(), points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pre.MSMContext(context.Background(), scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(&got, &want) {
		t.Fatal("precomputed G2 MSM disagrees with the windowed MSM")
	}
}
