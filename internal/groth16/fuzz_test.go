package groth16

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
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

// FuzzVerifyParity holds Verify (the optimal-ate multi-Miller loop over
// three pairs times the key's cached e(α, β)) to tateOracle (four Tate
// loops, the plain (p¹²−1)/r exponent, nothing cached): on a genuine
// proof and on mutations of it that stay valid group elements, both
// must return the same verdict. mut picks the mutation, k its scalar
// and j its index:
//
//	0 genuine        1 A → [k]A        2 C → [k]C       3 A ↔ C
//	4 B → [k]B       5 public[j] += 1  6 IC[0] ↔ IC[j]  7 γ₂ ↔ δ₂
//	8 β₂ ↔ δ₂ (the cached e(α, β) goes stale)
func FuzzVerifyParity(f *testing.F) {
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
	public := w[1 : 1+cs.NPublic]
	oracle := newTateOracle(f, e)
	for mut := uint8(0); mut <= 8; mut++ {
		f.Add(mut, uint64(mut)+1, uint8(1))
	}
	f.Add(uint8(1), uint64(0), uint8(0))

	c := e.P.Curve
	f.Fuzz(func(t *testing.T, mut uint8, k uint64, j uint8) {
		p, key := *proof, *vk
		pub := make([]field.Element, len(public))
		for i := range public {
			pub[i] = public[i].Clone()
		}
		key.IC = append([]curve.PointAffine(nil), vk.IC...)
		mulG1 := func(q *curve.PointAffine) curve.PointAffine {
			return c.ToAffine(c.NewAdder().ScalarMul(q, bigint.Nat{k, 0, 0, 0}))
		}
		switch mut % 9 {
		case 1:
			p.A = mulG1(&p.A)
		case 2:
			p.C = mulG1(&p.C)
		case 3:
			p.A, p.C = p.C, p.A
		case 4:
			p.B = e.P.G2.ScalarMul(&p.B, new(big.Int).SetUint64(k))
		case 5:
			x := pub[int(j)%len(pub)]
			e.Fr.Add(x, x, e.Fr.One())
		case 6:
			i := int(j) % len(key.IC)
			key.IC[0], key.IC[i] = key.IC[i], key.IC[0]
		case 7:
			key.Gamma2, key.Delta2 = key.Delta2, key.Gamma2
		case 8:
			key.Beta2, key.Delta2 = key.Delta2, key.Beta2
		}
		got, err := e.Verify(&key, &p, pub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.verify(&key, &p, pub)
		if err != nil {
			t.Fatal(err)
		}
		if mut%9 == 0 && !want {
			t.Fatal("the Tate oracle rejects the genuine proof")
		}
		if got != want {
			t.Fatalf("mutation %d (k=%d, j=%d): Verify says %v, the Tate oracle %v", mut%9, k, j, got, want)
		}
	})
}
