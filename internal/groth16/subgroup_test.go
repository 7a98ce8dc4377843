package groth16

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"distmsm/internal/field"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
)

// TestUnmarshalRejectsG2OutsideSubgroup: BN254's twist has a cofactor, so
// a point can satisfy the twist equation and still lie outside G2. The
// decoders must refuse such a point as proof B and as each of the VK's
// β, γ, δ, while honest encodings keep decoding.
func TestUnmarshalRejectsG2OutsideSubgroup(t *testing.T) {
	e := newEngine(t)
	bad := twistPointOutsideG2(t, e)
	if !e.P.G2.IsOnCurve(&bad) || e.P.G2InSubgroup(&bad) {
		t.Fatal("test point must be on the twist and outside G2")
	}
	if !e.P.G2InSubgroup(&e.P.G2.Gen) {
		t.Fatal("the G2 generator fails the subgroup check")
	}

	ctx := context.Background()
	cs, w := r1cs.BuildSynthetic(e.Fr, 4, 3)
	rnd := rand.New(rand.NewSource(8))
	pk, vk, err := e.SetupContext(ctx, cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(ctx, cs, pk, w, rnd, Provers{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UnmarshalProof(e.MarshalProof(proof)); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	if _, err := e.UnmarshalVerifyingKey(e.MarshalVerifyingKey(vk)); err != nil {
		t.Fatalf("honest verifying key rejected: %v", err)
	}

	forged := *proof
	forged.B = bad
	if _, err := e.UnmarshalProof(e.MarshalProof(&forged)); err == nil || !strings.Contains(err.Error(), "subgroup") {
		t.Fatalf("proof with B outside G2: want a subgroup error, got %v", err)
	}
	for name, set := range map[string]func(*VerifyingKey){
		"beta":  func(k *VerifyingKey) { k.Beta2 = bad },
		"gamma": func(k *VerifyingKey) { k.Gamma2 = bad },
		"delta": func(k *VerifyingKey) { k.Delta2 = bad },
	} {
		k := *vk
		set(&k)
		if _, err := e.UnmarshalVerifyingKey(e.MarshalVerifyingKey(&k)); err == nil || !strings.Contains(err.Error(), "subgroup") {
			t.Errorf("VK with %s outside G2: want a subgroup error, got %v", name, err)
		}
	}
}

// twistPointOutsideG2 returns the point on the twist y² = x³ + b' with
// x = i + u for the smallest i whose right-hand side is a square. The
// twist's order is a large multiple of r, so such a point is outside G2
// (the caller checks).
func twistPointOutsideG2(t *testing.T, e *Engine) pairing.G2Affine {
	tw := e.P.T
	for i := uint64(1); i < 100; i++ {
		x := pairing.E2{A0: [4]uint64(e.P.Fp.FromUint64(i)), A1: [4]uint64(e.P.Fp.One())}
		var rhs pairing.E2
		tw.E2Square(&rhs, &x)
		tw.E2Mul(&rhs, &rhs, &x)
		tw.E2Add(&rhs, &rhs, &e.P.G2.B)
		if y, ok := e2Sqrt(e, &rhs); ok {
			return pairing.G2Affine{X: x, Y: y}
		}
	}
	t.Fatal("no twist point found")
	return pairing.G2Affine{}
}

// e2Sqrt is a test-only Fp2 square root by the norm method: for
// a = a0 + a1·u with n = √(a0² + a1²) in Fp, a root is x0 + x1·u with
// x0 = √((a0 ± n)/2) and x1 = a1/(2·x0).
func e2Sqrt(e *Engine, a *pairing.E2) (pairing.E2, bool) {
	fp := e.P.Fp
	a0, a1 := field.Element(a.A0[:]), field.Element(a.A1[:])
	n, d, x0, x1 := fp.NewElement(), fp.NewElement(), fp.NewElement(), fp.NewElement()
	fp.Square(n, a0)
	fp.Square(d, a1)
	fp.Add(n, n, d)
	if !fp.Sqrt(n, n) {
		return pairing.E2{}, false
	}
	half := fp.FromUint64(2)
	fp.Inv(half, half)
	for _, pm := range []func(z, x, y field.Element){fp.Add, fp.Sub} {
		pm(d, a0, n)
		fp.Mul(d, d, half)
		if !fp.Sqrt(x0, d) || x0.IsZero() {
			continue
		}
		fp.Double(x1, x0)
		fp.Inv(x1, x1)
		fp.Mul(x1, x1, a1)
		y := pairing.E2{A0: [4]uint64(x0), A1: [4]uint64(x1)}
		var sq pairing.E2
		e.P.T.E2Square(&sq, &y)
		if sq == *a {
			return y, true
		}
	}
	return pairing.E2{}, false
}
