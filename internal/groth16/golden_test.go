package groth16

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"distmsm/internal/r1cs"
)

// TestProofBytesGolden pins the exact bytes of a proof and its verifying
// key for a fixed circuit, setup seed and blinding seed. Affine encodings
// are canonical, so any rewrite of the arithmetic underneath (towers,
// inversion, MSM bucket algorithms) must leave both digests unchanged.
func TestProofBytesGolden(t *testing.T) {
	const (
		wantProof = "03359398d790c5927939a8c154d7f0e33edbfb2b8b172a473559ff865af40d16"
		wantVK    = "4251b7cc932cd239ecd480896e82b06d0eab800c5048720e7fe9bff7f13f3145"
	)
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 24, 17)
	pk, vk, err := e.SetupContext(context.Background(), cs, rand.New(rand.NewSource(2024)))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rand.New(rand.NewSource(4048)), Provers{})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	if got := digest(e.MarshalProof(proof)); got != wantProof {
		t.Errorf("proof digest %s, want %s", got, wantProof)
	}
	if got := digest(e.MarshalVerifyingKey(vk)); got != wantVK {
		t.Errorf("verifying-key digest %s, want %s", got, wantVK)
	}
}
