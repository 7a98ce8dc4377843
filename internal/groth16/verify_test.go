package groth16

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"distmsm/internal/r1cs"
)

// verifyAllocsMax is the allocation count of one Verify before the
// optimal-ate rewrite (26: the public-input commitment, the point
// clones and the pair slices); the cached e(α, β) and the three-pair
// loop must not add any.
const verifyAllocsMax = 26

func TestVerifyAllocs(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 32, 2)
	rnd := rand.New(rand.NewSource(7))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil || !ok {
			t.Fatalf("genuine proof rejected: %v", err)
		}
	})
	if allocs > verifyAllocsMax {
		t.Errorf("Verify allocates %.1f objects/op, want ≤ %d", allocs, verifyAllocsMax)
	}
}

// TestVerifyingKeyCacheOffTheWire: the cached e(α, β) never reaches the
// encoding, and a key decoded from the bytes, the original key and a
// copy without the cache give the same verdict on every proof.
func TestVerifyingKeyCacheOffTheWire(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 20, 5)
	rnd := rand.New(rand.NewSource(5))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if vk.alphaBeta == nil {
		t.Fatal("SetupContext left the e(α, β) cache empty")
	}
	uncached := *vk
	uncached.alphaBeta = nil
	enc := e.MarshalVerifyingKey(&uncached)
	if got := e.MarshalVerifyingKey(vk); !bytes.Equal(got, enc) {
		t.Fatal("the e(α, β) cache changes the key bytes")
	}
	decoded, err := e.UnmarshalVerifyingKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.alphaBeta == nil {
		t.Fatal("UnmarshalVerifyingKey left the e(α, β) cache empty")
	}

	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		t.Fatal(err)
	}
	public := w[1 : 1+cs.NPublic]
	swapped := *proof
	swapped.A, swapped.C = proof.C, proof.A
	proofs := []*Proof{proof, &swapped}
	for i, p := range proofs {
		want := i == 0
		for name, key := range map[string]*VerifyingKey{"original": vk, "uncached": &uncached, "decoded": decoded} {
			ok, err := e.Verify(key, p, public)
			if err != nil {
				t.Fatal(err)
			}
			if ok != want {
				t.Errorf("%s key: proof %d verdict %v, want %v", name, i, ok, want)
			}
		}
	}
	if got := e.MarshalVerifyingKey(vk); !bytes.Equal(got, enc) {
		t.Fatal("the key bytes changed across Verify calls")
	}
	if got := e.MarshalVerifyingKey(decoded); !bytes.Equal(got, enc) {
		t.Fatal("the decoded key re-encodes to different bytes")
	}
}

// TestVerifyingKeyCacheFollowsFields: the cache is keyed by the α and β
// it was computed from, so a copied key whose fields are overwritten by
// another key's verifies that key's proofs instead of reusing a stale
// e(α, β).
func TestVerifyingKeyCacheFollowsFields(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 8, 3)
	_, vk1, err := e.SetupContext(context.Background(), cs, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pk2, vk2, err := e.SetupContext(context.Background(), cs, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk2, w, rand.New(rand.NewSource(3)), Provers{})
	if err != nil {
		t.Fatal(err)
	}
	k := *vk1
	k.Alpha, k.Beta2, k.Gamma2, k.Delta2, k.IC = vk2.Alpha, vk2.Beta2, vk2.Gamma2, vk2.Delta2, vk2.IC
	if ok, err := e.Verify(&k, proof, w[1:1+cs.NPublic]); err != nil || !ok {
		t.Fatalf("key overwritten with the prover's key rejects its proof (err %v)", err)
	}
}
