package cluster

import (
	"encoding/hex"
	"fmt"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/serial"
)

// This file is the wire format of the outsourced-MSM dispatch surface:
// the coordinator shards one large MSM across worker nodes and accepts
// each shard's claim only after the constant-size check of
// internal/outsource. A shard travels as explicit scalars plus a
// (curve, point_seed, range) triple the worker derives its base points
// from — the bases are deterministic public data, only the scalars need
// shipping.
//
// Framing indistinguishability: the coordinator dispatches a shard's
// real instance and its secret challenge instance as two structurally
// identical messages — same curve, same point seed, same range, same
// scalar_bits (the challenge width, to which real scalars are padded).
// A worker cannot tell from the frame which instance it is grading
// itself on; only the scalar values differ, and those look uniform.

// Wire bounds of the MSM surface.
const (
	// MaxMSMShard bounds one dispatch's point range — a shard, not the
	// whole MSM; the coordinator splits larger instances.
	MaxMSMShard = 1 << 16
	// MaxMSMScalarBits bounds the declared scalar width. Challenge
	// scalars run ~λ bits past the curve's scalar field, so the bound
	// leaves headroom above every supported curve (MNT4753 is 753-bit).
	MaxMSMScalarBits = 1024
	// MaxMSMBody caps an MSM dispatch-request body: MaxMSMShard scalars
	// of MaxMSMScalarBits, hex-encoded, plus JSON framing.
	MaxMSMBody = MaxMSMShard*(MaxMSMScalarBits/8)*2 + 1<<12
)

// MSMDispatchRequest is one MSM shard sent coordinator → worker: compute
// Σ k_i · P_i over the bases P_i = SamplePoints(curve, point_seed)
// [range_lo, range_hi) with the explicit scalars k, and return the sum.
type MSMDispatchRequest struct {
	JobID     uint64 `json:"job_id"`
	Curve     string `json:"curve"`
	PointSeed uint64 `json:"point_seed"`
	RangeLo   int    `json:"range_lo"`
	RangeHi   int    `json:"range_hi"`
	// ScalarBits is the fixed width every scalar in the blob is padded
	// to. Real and challenge instances of one shard declare the same
	// width (the challenge width), so the two frames are identical.
	ScalarBits int `json:"scalar_bits"`
	// Scalars is the hex of (range_hi-range_lo) big-endian fixed-width
	// scalars, concatenated.
	Scalars   string `json:"scalars"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// Timeout converts the wire deadline.
func (r MSMDispatchRequest) Timeout() time.Duration {
	return time.Duration(r.TimeoutMS) * time.Millisecond
}

// DecodeScalars decodes the scalar blob into the shard's scalar vector.
func (r MSMDispatchRequest) DecodeScalars() ([]bigint.Nat, error) {
	blob, err := hex.DecodeString(r.Scalars)
	if err != nil {
		return nil, fmt.Errorf("%w: scalars not hex: %v", ErrBadMessage, err)
	}
	n := r.RangeHi - r.RangeLo
	size := (r.ScalarBits + 7) / 8
	if len(blob) != n*size {
		return nil, fmt.Errorf("%w: scalar blob of %d bytes, want %d×%d", ErrBadMessage, len(blob), n, size)
	}
	out := make([]bigint.Nat, n)
	for i := 0; i < n; i++ {
		k, err := serial.UnmarshalScalar(blob[i*size:(i+1)*size], r.ScalarBits)
		if err != nil {
			return nil, fmt.Errorf("%w: scalar %d: %v", ErrBadMessage, i, err)
		}
		out[i] = k
	}
	return out, nil
}

// EncodeMSMScalars builds the wire blob: every scalar padded to the
// shard's uniform width.
func EncodeMSMScalars(scalars []bigint.Nat, scalarBits int) string {
	size := (scalarBits + 7) / 8
	blob := make([]byte, 0, len(scalars)*size)
	for _, k := range scalars {
		blob = append(blob, serial.MarshalScalar(k, scalarBits)...)
	}
	return hex.EncodeToString(blob)
}

// MSMDispatchResponse is the worker's answer: the shard sum as an
// uncompressed serial point in hex, or a terminal error string.
type MSMDispatchResponse struct {
	JobID  uint64 `json:"job_id"`
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// MSMRequest is the coordinator's client-facing MSM job: n points from
// the deterministic sample chain, n scalars from the scalar seed, split
// into shards across the fleet. The witness-seed pattern of /v1/prove —
// the instance is named, not shipped.
type MSMRequest struct {
	Curve      string
	PointSeed  uint64
	ScalarSeed int64
	N          int
	// Timeout is the end-to-end deadline; 0 uses the coordinator
	// default.
	Timeout time.Duration
}

// msmRequestWire is the POST /v1/msm body (coordinator, client-facing).
type msmRequestWire struct {
	Curve      string `json:"curve"`
	PointSeed  uint64 `json:"point_seed"`
	ScalarSeed int64  `json:"scalar_seed"`
	N          int    `json:"n"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
}

// MaxMSMPoints bounds a client-facing MSM instance; the coordinator
// shards it into at most ceil(N / MaxMSMShard)·2 dispatches.
const MaxMSMPoints = 1 << 20

func validateCurveName(name string) error {
	if _, err := curve.ByName(name); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// ParseMSMDispatchRequest decodes and validates one MSM shard dispatch.
// Strict and panic-free on any input (FuzzOutsourceWire holds it to
// that); the scalar blob's hex is validated for exact size here but
// decoded lazily by DecodeScalars.
func ParseMSMDispatchRequest(body []byte) (MSMDispatchRequest, error) {
	var w MSMDispatchRequest
	if err := unmarshalWireCapped(body, MaxMSMBody, &w); err != nil {
		return MSMDispatchRequest{}, err
	}
	if err := validateCurveName(w.Curve); err != nil {
		return MSMDispatchRequest{}, err
	}
	if w.RangeLo < 0 || w.RangeHi <= w.RangeLo {
		return MSMDispatchRequest{}, fmt.Errorf("%w: bad range [%d, %d)", ErrBadMessage, w.RangeLo, w.RangeHi)
	}
	n := w.RangeHi - w.RangeLo
	if n > MaxMSMShard {
		return MSMDispatchRequest{}, fmt.Errorf("%w: shard of %d points above the %d cap", ErrBadMessage, n, MaxMSMShard)
	}
	if w.ScalarBits < 1 || w.ScalarBits > MaxMSMScalarBits {
		return MSMDispatchRequest{}, fmt.Errorf("%w: scalar_bits %d outside [1, %d]", ErrBadMessage, w.ScalarBits, MaxMSMScalarBits)
	}
	if want := n * ((w.ScalarBits + 7) / 8) * 2; len(w.Scalars) != want {
		return MSMDispatchRequest{}, fmt.Errorf("%w: scalar hex of %d chars, want %d", ErrBadMessage, len(w.Scalars), want)
	}
	if w.TimeoutMS < 0 {
		return MSMDispatchRequest{}, fmt.Errorf("%w: negative timeout_ms", ErrBadMessage)
	}
	if w.Timeout() > MaxDispatchTimeout {
		return MSMDispatchRequest{}, fmt.Errorf("%w: timeout_ms above the %v cap", ErrBadMessage, MaxDispatchTimeout)
	}
	return w, nil
}

// ParseMSMDispatchResponse decodes and validates a worker's MSM answer,
// returning the decoded result-point bytes on success. Like dispatch
// responses, carrying both a result and an error — or neither — is
// malformed. The point bytes are NOT decoded onto the curve here; the
// coordinator does that against the declared curve (junk that is not a
// curve point is rejected there, and counted as a corrupt response).
func ParseMSMDispatchResponse(body []byte) (MSMDispatchResponse, []byte, error) {
	var w MSMDispatchResponse
	if err := unmarshalWire(body, &w); err != nil {
		return MSMDispatchResponse{}, nil, err
	}
	// The body cap already bounds the hex.
	result, err := checkAnswer("result", w.Result, w.Error, maxWireBody)
	if err != nil {
		return MSMDispatchResponse{}, nil, err
	}
	return w, result, nil
}

// ParseMSMRequest decodes and validates a client-facing MSM job.
func ParseMSMRequest(body []byte) (MSMRequest, error) {
	var w msmRequestWire
	if err := unmarshalWire(body, &w); err != nil {
		return MSMRequest{}, err
	}
	if err := validateCurveName(w.Curve); err != nil {
		return MSMRequest{}, err
	}
	if w.N < 1 || w.N > MaxMSMPoints {
		return MSMRequest{}, fmt.Errorf("%w: n %d outside [1, %d]", ErrBadMessage, w.N, MaxMSMPoints)
	}
	if w.TimeoutMS < 0 {
		return MSMRequest{}, fmt.Errorf("%w: negative timeout_ms", ErrBadMessage)
	}
	timeout := time.Duration(w.TimeoutMS) * time.Millisecond
	if timeout > MaxDispatchTimeout {
		return MSMRequest{}, fmt.Errorf("%w: timeout_ms above the %v cap", ErrBadMessage, MaxDispatchTimeout)
	}
	return MSMRequest{Curve: w.Curve, PointSeed: w.PointSeed, ScalarSeed: w.ScalarSeed, N: w.N, Timeout: timeout}, nil
}
