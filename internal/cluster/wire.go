// Package cluster is the multi-node tier of the proving system: a
// coordinator that fronts several provd worker nodes and routes two
// kinds of work to them — proof jobs (/v1/prove) and the shards of an
// outsourced MSM (/v1/msm).
//
// The per-GPU layer (internal/core + internal/gpusim) already absorbs
// device loss, transient kernel failures, stragglers and corrupted
// partial sums *inside* one process. This package absorbs the failure
// modes a single process cannot: the whole node crashing, the network
// partitioning it away, the node silently slowing down, or the node
// returning a corrupted answer. The failure classes are the GPU layer's;
// the mechanisms are this tier's own —
//
//   - heartbeat leases: a node that misses its lease is marked lost and
//     its in-flight dispatches are cancelled and re-dispatched to
//     survivors; a draining node is exempt, its in-flight work is left
//     to finish;
//   - a per-node circuit breaker (Closed → Open → HalfOpen probe, on a
//     wall-clock cooldown) fed by dispatch failures, timeouts and
//     rejected answers quarantines a sick node instead of rediscovering
//     it on every job;
//   - one dispatch path for both kinds of work: pick a node, run one
//     attempt on it, settle the node's breaker at the verdict (proof
//     verification or the outsourced check) — never at delivery, so a
//     node that answers wrongly is never credited;
//   - proof jobs are hedged: a second node is tried once the first has
//     been out past an EWMA latency multiple, first result wins, loser
//     cancelled. MSM shard halves are not (see msm.go);
//   - when no remote node admits, the coordinator degrades to local
//     in-process work.
//
// Node faults are injectable and deterministic (see faults.go), so the
// failover paths are tested exactly the way the shard paths are.
package cluster

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Typed sentinels of the cluster API; all match with errors.Is.
var (
	// ErrBadMessage rejects a malformed or out-of-bounds wire message.
	ErrBadMessage = errors.New("cluster: bad message")
	// ErrUnknownNode reports an operation against a node ID the
	// coordinator has never seen (or has already forgotten).
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrTooManyNodes rejects a registration beyond Config.MaxNodes —
	// the node table is bounded so hostile or buggy registrants cannot
	// grow coordinator state without limit.
	ErrTooManyNodes = errors.New("cluster: node table full")
	// ErrNoNodes reports that no worker node was available to dispatch
	// to and no local fallback was configured.
	ErrNoNodes = errors.New("cluster: no dispatchable nodes")
	// ErrCorruptProof reports a remote proof that failed the
	// coordinator's verification — the corrupted-response fault class.
	ErrCorruptProof = errors.New("cluster: remote proof failed verification")
	// ErrShuttingDown rejects operations after Close began.
	ErrShuttingDown = errors.New("cluster: coordinator shutting down")
	// ErrStaleLease reports a heartbeat whose sequence number ran
	// backwards — a delayed duplicate, never a lease renewal.
	ErrStaleLease = errors.New("cluster: stale heartbeat")
)

// Wire-format bounds. Every inbound message is held to these before it
// touches coordinator state; FuzzClusterWire holds the parsers to
// rejecting anything beyond them without panicking.
const (
	// maxWireBody caps any single wire message body, except dispatch
	// responses (which carry a proof and get maxDispatchRespBody).
	maxWireBody = 1 << 16
	// maxNodeID bounds the node-identifier length.
	maxNodeID = 64
	// maxNodeAddr bounds the advertised dispatch address length.
	maxNodeAddr = 256
	// maxNodeCircuits bounds the circuit list a node may advertise.
	maxNodeCircuits = 64
	// maxCircuitName mirrors the service's wire bound on circuit names.
	maxCircuitName = 64
	// maxNodeWorkers bounds the advertised worker-pool size.
	maxNodeWorkers = 1 << 12
	// maxProofHex bounds the proof field of a dispatch response (hex
	// characters); far above any real proof, far below a memory bomb.
	maxProofHex = 1 << 20
	// maxDispatchRespBody caps a dispatch-response body: a maxProofHex
	// proof plus room for the JSON framing. It must exceed maxProofHex
	// or the body cap would make the proof bound unreachable and every
	// proof above ~maxWireBody/2 would fail to transit.
	maxDispatchRespBody = maxProofHex + 1<<10
	// MaxDispatchTimeout caps the per-job deadline accepted on the wire,
	// mirroring the service's cap.
	MaxDispatchTimeout = 10 * time.Minute
)

// RegisterRequest announces a worker node to the coordinator: its
// identity, the address the coordinator dispatches to, the circuits it
// can prove and its worker-pool size.
type RegisterRequest struct {
	NodeID   string   `json:"node_id"`
	Addr     string   `json:"addr"`
	Circuits []string `json:"circuits,omitempty"`
	Workers  int      `json:"workers,omitempty"`
}

// RegisterResponse grants the node its heartbeat lease: the node is
// considered live for LeaseMS after every accepted heartbeat and should
// heartbeat every HeartbeatMS.
type RegisterResponse struct {
	LeaseMS     int64 `json:"lease_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest renews a node's lease and reports its load. Seq must
// be monotone per node; a heartbeat whose Seq runs backwards is a
// delayed duplicate and never renews the lease.
type HeartbeatRequest struct {
	NodeID   string `json:"node_id"`
	Seq      uint64 `json:"seq"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"in_flight"`
}

// HeartbeatResponse acknowledges a heartbeat. Reregister tells the node
// the coordinator does not know it (it restarted, or the node's lease
// expired long enough ago to be forgotten) and it must register again.
type HeartbeatResponse struct {
	OK         bool `json:"ok"`
	Reregister bool `json:"reregister,omitempty"`
}

// DeregisterRequest announces a graceful drain: the node stops
// receiving new dispatches but its in-flight jobs are left to finish
// (unlike a lease expiry, which cancels and re-dispatches them).
type DeregisterRequest struct {
	NodeID string `json:"node_id"`
}

// DispatchRequest is one proof job sent coordinator → worker.
type DispatchRequest struct {
	JobID     uint64 `json:"job_id"`
	Circuit   string `json:"circuit"`
	Seed      int64  `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// Timeout converts the wire deadline.
func (r DispatchRequest) Timeout() time.Duration {
	return time.Duration(r.TimeoutMS) * time.Millisecond
}

// DispatchResponse is the worker's answer: the marshalled proof in hex,
// or a terminal error string.
type DispatchResponse struct {
	JobID uint64 `json:"job_id"`
	Proof string `json:"proof,omitempty"`
	Error string `json:"error,omitempty"`
}

// ProveRequest is the coordinator's client-facing job request — the
// same shape the single-node service accepts, so clients are oblivious
// to whether they talk to one provd or a cluster.
type ProveRequest struct {
	Circuit string
	Seed    int64
	// Timeout is the end-to-end deadline measured from submission; 0
	// uses the coordinator default.
	Timeout time.Duration
}

// proveRequestWire is the POST /v1/prove body.
type proveRequestWire struct {
	Circuit   string `json:"circuit"`
	Seed      int64  `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func validateCircuitName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: missing circuit name", ErrBadMessage)
	}
	if len(name) > maxCircuitName {
		return fmt.Errorf("%w: circuit name longer than %d bytes", ErrBadMessage, maxCircuitName)
	}
	for _, r := range name {
		if r < 0x21 || r > 0x7E {
			return fmt.Errorf("%w: circuit name contains non-printable or space character %q", ErrBadMessage, r)
		}
	}
	return nil
}

func validateNodeID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: missing node_id", ErrBadMessage)
	}
	if len(id) > maxNodeID {
		return fmt.Errorf("%w: node_id longer than %d bytes", ErrBadMessage, maxNodeID)
	}
	for _, r := range id {
		if r < 0x21 || r > 0x7E {
			return fmt.Errorf("%w: node_id contains non-printable or space character %q", ErrBadMessage, r)
		}
	}
	return nil
}

func unmarshalWireCapped(body []byte, limit int, v any) error {
	if len(body) > limit {
		return fmt.Errorf("%w: body of %d bytes above the %d cap", ErrBadMessage, len(body), limit)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

func unmarshalWire(body []byte, v any) error {
	return unmarshalWireCapped(body, maxWireBody, v)
}

// ParseRegisterRequest decodes and validates a registration message. It
// is strict — oversized or non-printable identifiers, absurd worker
// counts and oversized circuit lists are all rejected with errors
// wrapping ErrBadMessage — and never panics on any input.
func ParseRegisterRequest(body []byte) (RegisterRequest, error) {
	var w RegisterRequest
	if err := unmarshalWire(body, &w); err != nil {
		return RegisterRequest{}, err
	}
	if err := validateNodeID(w.NodeID); err != nil {
		return RegisterRequest{}, err
	}
	if w.Addr == "" {
		return RegisterRequest{}, fmt.Errorf("%w: missing addr", ErrBadMessage)
	}
	if len(w.Addr) > maxNodeAddr {
		return RegisterRequest{}, fmt.Errorf("%w: addr longer than %d bytes", ErrBadMessage, maxNodeAddr)
	}
	if len(w.Circuits) > maxNodeCircuits {
		return RegisterRequest{}, fmt.Errorf("%w: %d circuits above the %d cap", ErrBadMessage, len(w.Circuits), maxNodeCircuits)
	}
	for _, c := range w.Circuits {
		if err := validateCircuitName(c); err != nil {
			return RegisterRequest{}, err
		}
	}
	if w.Workers < 0 || w.Workers > maxNodeWorkers {
		return RegisterRequest{}, fmt.Errorf("%w: workers %d outside [0, %d]", ErrBadMessage, w.Workers, maxNodeWorkers)
	}
	return w, nil
}

// ParseHeartbeatRequest decodes and validates a heartbeat message.
func ParseHeartbeatRequest(body []byte) (HeartbeatRequest, error) {
	var w HeartbeatRequest
	if err := unmarshalWire(body, &w); err != nil {
		return HeartbeatRequest{}, err
	}
	if err := validateNodeID(w.NodeID); err != nil {
		return HeartbeatRequest{}, err
	}
	if w.Queued < 0 || w.InFlight < 0 {
		return HeartbeatRequest{}, fmt.Errorf("%w: negative load figures", ErrBadMessage)
	}
	return w, nil
}

// ParseDeregisterRequest decodes and validates a drain announcement.
func ParseDeregisterRequest(body []byte) (DeregisterRequest, error) {
	var w DeregisterRequest
	if err := unmarshalWire(body, &w); err != nil {
		return DeregisterRequest{}, err
	}
	if err := validateNodeID(w.NodeID); err != nil {
		return DeregisterRequest{}, err
	}
	return w, nil
}

// ParseDispatchRequest decodes and validates a coordinator → worker job.
func ParseDispatchRequest(body []byte) (DispatchRequest, error) {
	var w DispatchRequest
	if err := unmarshalWire(body, &w); err != nil {
		return DispatchRequest{}, err
	}
	if err := validateCircuitName(w.Circuit); err != nil {
		return DispatchRequest{}, err
	}
	if w.TimeoutMS < 0 {
		return DispatchRequest{}, fmt.Errorf("%w: negative timeout_ms", ErrBadMessage)
	}
	if w.Timeout() > MaxDispatchTimeout {
		return DispatchRequest{}, fmt.Errorf("%w: timeout_ms above the %v cap", ErrBadMessage, MaxDispatchTimeout)
	}
	return w, nil
}

// ParseDispatchResponse decodes and validates a worker's answer,
// returning the decoded proof bytes on success. A response that carries
// both a proof and an error, or neither, is malformed.
func ParseDispatchResponse(body []byte) (DispatchResponse, []byte, error) {
	var w DispatchResponse
	if err := unmarshalWireCapped(body, maxDispatchRespBody, &w); err != nil {
		return DispatchResponse{}, nil, err
	}
	proof, err := checkAnswer("proof", w.Proof, w.Error, maxProofHex)
	if err != nil {
		return DispatchResponse{}, nil, err
	}
	return w, proof, nil
}

// checkAnswer holds a worker's answer on either dispatch surface to the
// envelope they share: exactly one of a hex payload (the named field)
// and an error string, the payload at most hexCap hex characters. It
// returns the decoded payload, nil for an error answer.
func checkAnswer(field, payload, errMsg string, hexCap int) ([]byte, error) {
	if errMsg != "" {
		if payload != "" {
			return nil, fmt.Errorf("%w: response carries both %s and error", ErrBadMessage, field)
		}
		return nil, nil
	}
	if payload == "" {
		return nil, fmt.Errorf("%w: response carries neither %s nor error", ErrBadMessage, field)
	}
	if len(payload) > hexCap {
		return nil, fmt.Errorf("%w: %s of %d hex chars above the %d cap", ErrBadMessage, field, len(payload), hexCap)
	}
	b, err := hex.DecodeString(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s is not hex: %v", ErrBadMessage, field, err)
	}
	return b, nil
}

// ParseProveRequest decodes and validates a client job request against
// the coordinator (same shape as the single-node service's /v1/prove).
func ParseProveRequest(body []byte) (ProveRequest, error) {
	var w proveRequestWire
	if err := unmarshalWire(body, &w); err != nil {
		return ProveRequest{}, err
	}
	if err := validateCircuitName(w.Circuit); err != nil {
		return ProveRequest{}, err
	}
	if w.TimeoutMS < 0 {
		return ProveRequest{}, fmt.Errorf("%w: negative timeout_ms", ErrBadMessage)
	}
	timeout := time.Duration(w.TimeoutMS) * time.Millisecond
	if timeout > MaxDispatchTimeout {
		return ProveRequest{}, fmt.Errorf("%w: timeout_ms above the %v cap", ErrBadMessage, MaxDispatchTimeout)
	}
	return ProveRequest{Circuit: w.Circuit, Seed: w.Seed, Timeout: timeout}, nil
}
