package msm

import (
	"math/big"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
)

// --- precomputation (§2.3.1) ---

func TestPrecomputedErrors(t *testing.T) {
	c := mustCurve(t, "BN254")
	points := c.SamplePoints(4, 1)
	if _, err := Precompute(c, points, Config{WindowSize: 40}); err == nil {
		t.Fatal("oversized window must error")
	}
}

// --- batch-affine accumulation ---

func TestBatchAffineSumMatchesWindowSum(t *testing.T) {
	c := mustCurve(t, "BN254")
	n := 200
	points := c.SamplePoints(n, 61)
	// Digits engineered to hit all edge cases: zeros, negatives, repeats
	// (same bucket repeatedly → doubling path), and a duplicate point.
	digits := make([]int32, n)
	for i := range digits {
		switch i % 6 {
		case 0:
			digits[i] = 0
		case 1:
			digits[i] = 7
		case 2:
			digits[i] = -7
		case 3:
			digits[i] = int32(i%15 + 1)
		case 4:
			digits[i] = 1
		default:
			digits[i] = 15
		}
	}
	points[10] = points[4] // duplicate point into bucket 1 (doubling edge)
	digits[10], digits[4] = 1, 1

	nBuckets := 16
	got := BatchAffineSum(c, points, digits, nBuckets)

	a := c.NewAdder()
	cfg := Config{WindowSize: 4}
	want := windowSum(c, points, digits, cfg, a)
	// Reduce got buckets the same way and compare.
	running := c.NewXYZZ()
	total := c.NewXYZZ()
	for b := nBuckets - 1; b >= 1; b-- {
		if !got[b].Inf {
			a.Acc(running, &got[b])
		}
		a.Add(total, running)
	}
	if !c.EqualXYZZ(total, want) {
		t.Fatal("batch-affine buckets reduce to a different window sum")
	}
	// Every non-empty bucket is on the curve.
	for b := range got {
		if !got[b].Inf && !c.IsOnCurveAffine(&got[b]) {
			t.Fatalf("bucket %d off curve", b)
		}
	}
}

// --- GLV endomorphism ---

func TestGLVDecompose(t *testing.T) {
	for _, name := range []string{"BN254", "BLS12-381"} {
		c := mustCurve(t, name)
		g, err := NewGLV(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := c.ScalarField.Modulus
		for _, k := range []*big.Int{
			big.NewInt(1),
			big.NewInt(0),
			new(big.Int).Sub(r, big.NewInt(1)),
			new(big.Int).Rsh(r, 1),
		} {
			k1, k2 := g.Decompose(k)
			// k1 + k2·λ ≡ k (mod r)
			chk := new(big.Int).Mul(k2, g.lambda)
			chk.Add(chk, k1).Mod(chk, r)
			want := new(big.Int).Mod(k, r)
			if chk.Cmp(want) != 0 {
				t.Fatalf("%s: decomposition incongruent for k=%v", name, k)
			}
			// Both halves are short.
			if k1.BitLen() > g.halfBits+2 || k2.BitLen() > g.halfBits+2 {
				t.Fatalf("%s: long half-scalars: %d/%d bits (half=%d)",
					name, k1.BitLen(), k2.BitLen(), g.halfBits)
			}
		}
	}
}

func TestGLVPhiIsEndomorphism(t *testing.T) {
	c := mustCurve(t, "BN254")
	g, err := NewGLV(c)
	if err != nil {
		t.Fatal(err)
	}
	pts := c.SamplePoints(5, 81)
	a := c.NewAdder()
	w := (c.ScalarBits + 63) / 64
	lam := bigint.FromBig(g.lambda, w)
	for i := range pts {
		phi := g.Phi(&pts[i])
		if !c.IsOnCurveAffine(&phi) {
			t.Fatal("phi(P) off curve")
		}
		want := a.ScalarMul(&pts[i], lam)
		got := c.NewXYZZ()
		c.SetAffine(got, &phi)
		if !c.EqualXYZZ(got, want) {
			t.Fatalf("phi(P) != lambda*P for sample %d", i)
		}
	}
	inf := g.Phi(&curve.PointAffine{Inf: true})
	if !inf.Inf {
		t.Fatal("phi(O) != O")
	}
}

func TestGLVRejectsUnsupportedCurves(t *testing.T) {
	c := mustCurve(t, "MNT4753") // a = 2, no j-invariant-0 endomorphism
	if _, err := NewGLV(c); err == nil {
		t.Fatal("MNT4753 must be rejected")
	}
	// BLS12-377 has the endomorphism but no embedded subgroup generator
	// in this build; GLV must refuse rather than risk wrong results.
	if _, err := NewGLV(mustCurve(t, "BLS12-377")); err == nil {
		t.Fatal("BLS12-377 (derived generator) must be rejected")
	}
}
