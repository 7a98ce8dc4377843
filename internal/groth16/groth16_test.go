package groth16

import (
	"context"
	"math/rand"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/gpusim"
	"distmsm/internal/r1cs"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProveVerifyProduct(t *testing.T) {
	e := newEngine(t)
	fr := e.Fr
	cs, _, _ := r1cs.BuildProduct(fr)
	rnd := rand.New(rand.NewSource(1))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	a := fr.FromUint64(6700417)
	b := fr.FromUint64(274177)
	w, err := r1cs.WitnessProduct(cs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		t.Fatal(err)
	}
	c := fr.NewElement()
	fr.Mul(c, a, b)
	ok, err := e.Verify(vk, proof, []field.Element{c})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid proof rejected")
	}

	// Wrong public input must fail.
	wrong := fr.FromUint64(42)
	ok, err = e.Verify(vk, proof, []field.Element{wrong})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("proof accepted for wrong public input")
	}

	// Tampered proof must fail.
	bad := *proof
	bad.A = curve.PointAffine{X: proof.C.X, Y: proof.C.Y}
	ok, err = e.Verify(vk, &bad, []field.Element{c})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered proof accepted")
	}

	// Mismatched public-input arity errors.
	if _, err := e.Verify(vk, proof, nil); err == nil {
		t.Fatal("want arity error")
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	e := newEngine(t)
	cs, _, _ := r1cs.BuildProduct(e.Fr)
	rnd := rand.New(rand.NewSource(2))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	w := cs.NewWitness() // all zeros except the one: violates constraints
	if _, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{}); err == nil {
		t.Fatal("prover accepted an unsatisfying witness")
	}
}

func TestSyntheticCircuitSizes(t *testing.T) {
	e := newEngine(t)
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 64, 200} {
		cs, w := r1cs.BuildSynthetic(e.Fr, n, int64(n))
		if err := cs.Satisfied(w); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !ok {
			t.Fatalf("n=%d: valid proof rejected", n)
		}
	}
}

// The headline integration: proving with the G1 MSMs routed through the
// simulated multi-GPU DistMSM produces proofs the verifier accepts, and
// the modeled GPU cost is recorded.
func TestProveWithDistMSM(t *testing.T) {
	e := newEngine(t)
	rnd := rand.New(rand.NewSource(4))
	cs, w := r1cs.BuildSynthetic(e.Fr, 50, 99)
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var modeled float64
	msmFn := func(ctx context.Context, _ MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
		res, err := core.RunContext(ctx, e.P.Curve, cl, points, scalars, core.Options{WindowSize: 8})
		if err != nil {
			return nil, err
		}
		modeled += res.Cost.Total()
		return res.Point, nil
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{G1Ctx: msmFn})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("DistMSM-routed proof rejected")
	}
	if modeled <= 0 {
		t.Fatal("no modeled GPU cost accumulated")
	}
}

func TestProofDeterministicVerification(t *testing.T) {
	// Different prover randomness yields different proofs for the same
	// statement, all of which verify (zero-knowledge rerandomisation).
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 10, 7)
	rnd := rand.New(rand.NewSource(5))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := e.ProveContextWith(context.Background(), cs, pk, w, rand.New(rand.NewSource(100)), Provers{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.ProveContextWith(context.Background(), cs, pk, w, rand.New(rand.NewSource(200)), Provers{})
	if err != nil {
		t.Fatal(err)
	}
	if e.P.Curve.EqualAffine(&p1.A, &p2.A) {
		t.Fatal("proofs should be rerandomised")
	}
	for _, p := range []*Proof{p1, p2} {
		ok, err := e.Verify(vk, p, w[1:1+cs.NPublic])
		if err != nil || !ok {
			t.Fatalf("rerandomised proof rejected: %v", err)
		}
	}
}

func BenchmarkProve(b *testing.B) {
	e := newEngine(b)
	cs, w := r1cs.BuildSynthetic(e.Fr, 128, 1)
	rnd := rand.New(rand.NewSource(6))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		b.Fatal(err)
	}
	// Both schedules of the one phase table.
	for _, sched := range []struct {
		name string
		pr   Provers
	}{
		{"sequential", Provers{}},
		{"pipelined", Provers{Pipeline: &PipelineOptions{}}},
	} {
		b.Run(sched.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, sched.pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	e := newEngine(b)
	cs, w := r1cs.BuildSynthetic(e.Fr, 32, 2)
	rnd := rand.New(rand.NewSource(7))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProofAndKeySerialization(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 20, 13)
	rnd := rand.New(rand.NewSource(14))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		t.Fatal(err)
	}

	// Proof round trip, then verify the decoded proof.
	enc := e.MarshalProof(proof)
	if len(enc) != e.ProofSize() {
		t.Fatalf("proof encoding %d bytes, want %d", len(enc), e.ProofSize())
	}
	back, err := e.UnmarshalProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	vkEnc := e.MarshalVerifyingKey(vk)
	vkBack, err := e.UnmarshalVerifyingKey(vkEnc)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Verify(vkBack, back, w[1:1+cs.NPublic])
	if err != nil || !ok {
		t.Fatalf("decoded proof/key failed to verify: %v", err)
	}

	// Corruption is detected.
	bad := append([]byte(nil), enc...)
	bad[5] ^= 0xff
	if p2, err := e.UnmarshalProof(bad); err == nil {
		// Decoding may still succeed (another valid point); then
		// verification must fail.
		ok, err := e.Verify(vk, p2, w[1:1+cs.NPublic])
		if err == nil && ok {
			t.Fatal("corrupted proof accepted")
		}
	}
	if _, err := e.UnmarshalProof(enc[:10]); err == nil {
		t.Fatal("truncated proof accepted")
	}
	if _, err := e.UnmarshalVerifyingKey(vkEnc[:20]); err == nil {
		t.Fatal("truncated key accepted")
	}
	// The proof is succinct: ~3 group elements regardless of circuit size.
	if e.ProofSize() > 300 {
		t.Fatalf("proof suspiciously large: %d bytes", e.ProofSize())
	}
}
