package groth16

import (
	"fmt"

	"distmsm/internal/curve"
	"distmsm/internal/pairing"
	"distmsm/internal/serial"
)

// Binary encodings for proofs and verification keys: G1 points use the
// compressed SEC1 form from internal/serial; G2 points encode their two
// Fp2 coordinates as four base-field elements behind a one-byte
// infinity/uncompressed tag.

func (e *Engine) g2Size() int { return 1 + 4*serial.ElementSize(e.P.Fp) }

func (e *Engine) marshalG2(q *pairing.G2Affine) []byte {
	out := make([]byte, e.g2Size())
	if q.Inf {
		out[0] = serial.PrefixInfinity
		return out
	}
	out[0] = serial.PrefixUncompressed
	es := serial.ElementSize(e.P.Fp)
	off := 1
	copy(out[off:], serial.MarshalElement(e.P.Fp, q.X.A0[:]))
	off += es
	copy(out[off:], serial.MarshalElement(e.P.Fp, q.X.A1[:]))
	off += es
	copy(out[off:], serial.MarshalElement(e.P.Fp, q.Y.A0[:]))
	off += es
	copy(out[off:], serial.MarshalElement(e.P.Fp, q.Y.A1[:]))
	return out
}

func (e *Engine) unmarshalG2(b []byte) (pairing.G2Affine, error) {
	if len(b) != e.g2Size() {
		return pairing.G2Affine{}, fmt.Errorf("groth16: G2 encoding length %d, want %d", len(b), e.g2Size())
	}
	if b[0] == serial.PrefixInfinity {
		for _, x := range b[1:] {
			if x != 0 {
				return pairing.G2Affine{}, fmt.Errorf("groth16: malformed G2 infinity")
			}
		}
		return pairing.G2Affine{Inf: true}, nil
	}
	if b[0] != serial.PrefixUncompressed {
		return pairing.G2Affine{}, fmt.Errorf("groth16: unknown G2 prefix 0x%02x", b[0])
	}
	es := serial.ElementSize(e.P.Fp)
	x0, err := serial.UnmarshalElement(e.P.Fp, b[1:1+es])
	if err != nil {
		return pairing.G2Affine{}, err
	}
	x1, err := serial.UnmarshalElement(e.P.Fp, b[1+es:1+2*es])
	if err != nil {
		return pairing.G2Affine{}, err
	}
	y0, err := serial.UnmarshalElement(e.P.Fp, b[1+2*es:1+3*es])
	if err != nil {
		return pairing.G2Affine{}, err
	}
	y1, err := serial.UnmarshalElement(e.P.Fp, b[1+3*es:])
	if err != nil {
		return pairing.G2Affine{}, err
	}
	q := pairing.G2Affine{
		X: pairing.E2{A0: [4]uint64(x0), A1: [4]uint64(x1)},
		Y: pairing.E2{A0: [4]uint64(y0), A1: [4]uint64(y1)},
	}
	if !e.P.G2.IsOnCurve(&q) {
		return pairing.G2Affine{}, fmt.Errorf("groth16: G2 point not on the twist")
	}
	// The twist has a cofactor: on-curve is not in-G2.
	if !e.P.G2InSubgroup(&q) {
		return pairing.G2Affine{}, fmt.Errorf("groth16: G2 point not in the prime-order subgroup")
	}
	return q, nil
}

// ProofSize returns the encoded proof length in bytes.
func (e *Engine) ProofSize() int {
	g1 := serial.PointSize(e.P.Curve, true)
	return 2*g1 + e.g2Size()
}

// MarshalProof encodes a proof as A‖B‖C (G1 compressed, G2 uncompressed).
func (e *Engine) MarshalProof(p *Proof) []byte {
	out := serial.MarshalPoint(e.P.Curve, &p.A, true)
	out = append(out, e.marshalG2(&p.B)...)
	out = append(out, serial.MarshalPoint(e.P.Curve, &p.C, true)...)
	return out
}

// UnmarshalProof decodes and validates a proof encoding.
func (e *Engine) UnmarshalProof(b []byte) (*Proof, error) {
	g1 := serial.PointSize(e.P.Curve, true)
	if len(b) != e.ProofSize() {
		return nil, fmt.Errorf("groth16: proof length %d, want %d", len(b), e.ProofSize())
	}
	a, err := serial.UnmarshalPoint(e.P.Curve, b[:g1])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof A: %w", err)
	}
	bb, err := e.unmarshalG2(b[g1 : g1+e.g2Size()])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof B: %w", err)
	}
	c, err := serial.UnmarshalPoint(e.P.Curve, b[g1+e.g2Size():])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof C: %w", err)
	}
	return &Proof{A: a, B: bb, C: c}, nil
}

// MarshalVerifyingKey encodes a verification key: α‖β₂‖γ₂‖δ₂‖len(IC)‖IC…
func (e *Engine) MarshalVerifyingKey(vk *VerifyingKey) []byte {
	out := serial.MarshalPoint(e.P.Curve, &vk.Alpha, true)
	out = append(out, e.marshalG2(&vk.Beta2)...)
	out = append(out, e.marshalG2(&vk.Gamma2)...)
	out = append(out, e.marshalG2(&vk.Delta2)...)
	out = append(out, byte(len(vk.IC)>>8), byte(len(vk.IC)))
	for i := range vk.IC {
		out = append(out, serial.MarshalPoint(e.P.Curve, &vk.IC[i], true)...)
	}
	return out
}

// UnmarshalVerifyingKey decodes a verification key.
func (e *Engine) UnmarshalVerifyingKey(b []byte) (*VerifyingKey, error) {
	g1 := serial.PointSize(e.P.Curve, true)
	g2 := e.g2Size()
	head := g1 + 3*g2 + 2
	if len(b) < head {
		return nil, fmt.Errorf("groth16: verifying key too short (%d bytes)", len(b))
	}
	vk := &VerifyingKey{}
	var err error
	off := 0
	if vk.Alpha, err = serial.UnmarshalPoint(e.P.Curve, b[off:off+g1]); err != nil {
		return nil, fmt.Errorf("groth16: vk alpha: %w", err)
	}
	off += g1
	if vk.Beta2, err = e.unmarshalG2(b[off : off+g2]); err != nil {
		return nil, fmt.Errorf("groth16: vk beta: %w", err)
	}
	off += g2
	if vk.Gamma2, err = e.unmarshalG2(b[off : off+g2]); err != nil {
		return nil, fmt.Errorf("groth16: vk gamma: %w", err)
	}
	off += g2
	if vk.Delta2, err = e.unmarshalG2(b[off : off+g2]); err != nil {
		return nil, fmt.Errorf("groth16: vk delta: %w", err)
	}
	off += g2
	n := int(b[off])<<8 | int(b[off+1])
	off += 2
	if len(b) != off+n*g1 {
		return nil, fmt.Errorf("groth16: verifying key length %d, want %d", len(b), off+n*g1)
	}
	vk.IC = make([]curve.PointAffine, n)
	for i := 0; i < n; i++ {
		if vk.IC[i], err = serial.UnmarshalPoint(e.P.Curve, b[off:off+g1]); err != nil {
			return nil, fmt.Errorf("groth16: vk IC[%d]: %w", i, err)
		}
		off += g1
	}
	e.cacheAlphaBeta(vk)
	return vk, nil
}
