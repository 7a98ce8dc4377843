package groth16

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"distmsm/internal/r1cs"
)

// FuzzProofRoundTrip feeds arbitrary bytes to the proof and
// verifying-key decoders. Invariants: the decoders never panic on any
// input; whatever they accept re-encodes to exactly the bytes that were
// decoded (the encoding is canonical, so a proof cannot have two
// distinct wire forms — malleable encodings are a classic proof-system
// footgun). Seeded with a genuine proof/VK pair so the accepting path is
// explored from the first run.
func FuzzProofRoundTrip(f *testing.F) {
	e, err := NewEngine()
	if err != nil {
		f.Fatal(err)
	}
	cs, w := r1cs.BuildSynthetic(e.Fr, 20, 9)
	rnd := rand.New(rand.NewSource(9))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		f.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, Provers{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(e.MarshalProof(proof))
	f.Add(e.MarshalVerifyingKey(vk))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, e.ProofSize()))
	f.Add(make([]byte, e.ProofSize()))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := e.UnmarshalProof(data); err == nil {
			out := e.MarshalProof(p)
			if !bytes.Equal(out, data) {
				t.Fatalf("proof round-trip not canonical:\n in %x\nout %x", data, out)
			}
		}
		if vk, err := e.UnmarshalVerifyingKey(data); err == nil {
			out := e.MarshalVerifyingKey(vk)
			if !bytes.Equal(out, data) {
				t.Fatalf("verifying-key round-trip not canonical:\n in %x\nout %x", data, out)
			}
		}
	})
}
