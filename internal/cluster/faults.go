package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/serial"
)

// This file extends the seedable fault-injection philosophy of
// internal/gpusim/faults.go from GPU shards to whole nodes. Every
// injection decision is a pure hash of (seed, node, dispatch-sequence),
// so a given seed reproduces the same fault pattern regardless of
// goroutine scheduling — which is what lets the chaos tests assert hard
// invariants ("every job completes, proofs byte-identical") across
// seeds instead of eyeballing flaky runs.
//
// The four node-level fault classes, and who catches each:
//
//	crash      the node dies and stays dead: every later dispatch fails
//	           fast and its heartbeats stop (the test harness consults
//	           Crashed) — caught by the heartbeat lease, absorbed by
//	           re-dispatch to survivors.
//	partition  the dispatch hangs until its context is cancelled —
//	           caught by hedged dispatch (a second node finishes first)
//	           or by the lease expiry cancelling the attempt.
//	slow-node  the dispatch completes after an injected delay — caught
//	           by hedging; throughput degrades, correctness never.
//	corrupt    the dispatch returns a perturbed proof — caught by the
//	           coordinator's proof verification, costs one redispatch.

// NodeFaultClass enumerates the injectable node-level fault classes.
type NodeFaultClass int

const (
	// NodeFaultNone: the dispatch proceeds normally.
	NodeFaultNone NodeFaultClass = iota
	// NodeFaultCrash permanently kills the node: this and every later
	// dispatch to it fail fast, and Crashed reports true so harnesses
	// stop its heartbeats too.
	NodeFaultCrash
	// NodeFaultPartition hangs this dispatch until its context is
	// cancelled — the network ate the request.
	NodeFaultPartition
	// NodeFaultSlow delays this dispatch by the configured SlowDelay
	// before letting it proceed.
	NodeFaultSlow
	// NodeFaultCorrupt flips a byte in the returned proof.
	NodeFaultCorrupt
)

func (c NodeFaultClass) String() string {
	switch c {
	case NodeFaultNone:
		return "none"
	case NodeFaultCrash:
		return "crash"
	case NodeFaultPartition:
		return "partition"
	case NodeFaultSlow:
		return "slow-node"
	case NodeFaultCorrupt:
		return "corrupted-response"
	}
	return "unknown"
}

// ErrNodeCrashed is the dispatch error of a crashed node — the
// node-level stand-in for "connection refused".
var ErrNodeCrashed = errors.New("cluster: node crashed (injected)")

// ErrBadNodeFaultConfig reports an invalid NodeFaultConfig.
var ErrBadNodeFaultConfig = errors.New("cluster: invalid node-fault configuration")

// NodeFaultConfig describes per-dispatch fault probabilities. All
// probabilities are in [0, 1] and their sum must not exceed 1 (at most
// one fault fires per dispatch). The zero value injects nothing.
type NodeFaultConfig struct {
	// Seed makes every decision a pure function of
	// (Seed, node, dispatch-sequence).
	Seed int64
	// Crash is the probability a dispatch permanently kills its node.
	Crash float64
	// Partition is the probability a dispatch hangs until cancelled.
	Partition float64
	// Slow is the probability a dispatch is delayed by SlowDelay.
	Slow float64
	// Corrupt is the probability a dispatch returns a perturbed proof.
	Corrupt float64
	// SlowDelay is the injected delay of a slow dispatch (default 200ms).
	SlowDelay time.Duration
}

// DefaultSlowDelay is the slow-node delay when NodeFaultConfig.SlowDelay
// is unset.
const DefaultSlowDelay = 200 * time.Millisecond

// hash-domain tag keeping node-level decisions independent of the GPU
// injector's streams even under the same seed.
const tagNodeDecide uint64 = 0x4E0DE

// NodeInjector makes deterministic node-fault decisions. Decisions are
// pure in (seed, node, seq); the only mutable state is the sticky
// crashed set and the per-node dispatch sequence counters.
type NodeInjector struct {
	cfg  NodeFaultConfig
	pick gpusim.FaultPicker // classes in NodeFaultClass order, from NodeFaultCrash

	mu      sync.Mutex
	seq     map[int]uint64
	crashed map[int]bool
}

// NewNodeInjector validates cfg and returns an injector for it.
func NewNodeInjector(cfg NodeFaultConfig) (*NodeInjector, error) {
	pick, err := gpusim.NewFaultPicker(ErrBadNodeFaultConfig,
		gpusim.FaultProb{Name: "Crash", P: cfg.Crash},
		gpusim.FaultProb{Name: "Partition", P: cfg.Partition},
		gpusim.FaultProb{Name: "Slow", P: cfg.Slow},
		gpusim.FaultProb{Name: "Corrupt", P: cfg.Corrupt})
	if err != nil {
		return nil, err
	}
	if cfg.SlowDelay < 0 {
		return nil, fmt.Errorf("%w: SlowDelay = %v < 0", ErrBadNodeFaultConfig, cfg.SlowDelay)
	}
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = DefaultSlowDelay
	}
	return &NodeInjector{cfg: cfg, pick: pick, seq: map[int]uint64{}, crashed: map[int]bool{}}, nil
}

// Config returns the (default-filled) configuration.
func (i *NodeInjector) Config() NodeFaultConfig { return i.cfg }

// Decide returns the fault (if any) injected into the seq-th dispatch
// to the given node. The decision is deterministic in (seed, node, seq).
// A nil injector injects nothing.
func (i *NodeInjector) Decide(node int, seq uint64) NodeFaultClass {
	if i == nil {
		return NodeFaultNone
	}
	return NodeFaultClass(i.pick.Pick(gpusim.HashUnit(uint64(i.cfg.Seed), tagNodeDecide, uint64(node), seq)))
}

// Crashed reports whether the node has been killed by an injected
// crash. Harnesses consult it to stop the node's heartbeats — a crashed
// process does not heartbeat.
func (i *NodeInjector) Crashed(node int) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed[node]
}

// CrashedCount returns how many distinct nodes the injector has killed.
func (i *NodeInjector) CrashedCount() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.crashed)
}

// next draws the node's next dispatch decision, applying the sticky
// crash state.
func (i *NodeInjector) next(node int) NodeFaultClass {
	i.mu.Lock()
	if i.crashed[node] {
		i.mu.Unlock()
		return NodeFaultCrash
	}
	s := i.seq[node]
	i.seq[node] = s + 1
	i.mu.Unlock()
	f := i.Decide(node, s)
	if f == NodeFaultCrash {
		i.mu.Lock()
		i.crashed[node] = true
		i.mu.Unlock()
	}
	return f
}

// WrapClient returns wc with the injector's faults applied: crashes
// fail fast (and stick), partitions hang until the context is
// cancelled, slow nodes delay, and corruption flips a byte of the
// returned proof. A nil injector returns wc unchanged.
func (i *NodeInjector) WrapClient(node int, wc WorkerClient) WorkerClient {
	if i == nil {
		return wc
	}
	fc := &faultClient{inj: i, node: node, inner: wc}
	if _, ok := wc.(MSMWorkerClient); ok {
		// Wrap the MSM surface only when the inner client serves it, so
		// the coordinator's MSMWorkerClient type assertion keeps telling
		// the truth about the node's capabilities.
		return &msmFaultClient{faultClient: fc}
	}
	return fc
}

// faultClient is a WorkerClient with injected node faults.
type faultClient struct {
	inj   *NodeInjector
	node  int
	inner WorkerClient
}

// inject draws the node's next fault and applies the classes that act
// before the request reaches the worker — crash, partition, slow — on
// either dispatch surface. It reports whether the answer must come back
// corrupted, which each surface does its own way.
func (f *faultClient) inject(ctx context.Context) (corrupt bool, err error) {
	switch f.inj.next(f.node) {
	case NodeFaultCrash:
		return false, fmt.Errorf("%w: node %d", ErrNodeCrashed, f.node)
	case NodeFaultPartition:
		<-ctx.Done()
		return false, fmt.Errorf("cluster: node %d partitioned (injected): %w", f.node, ctx.Err())
	case NodeFaultSlow:
		select {
		case <-time.After(f.inj.cfg.SlowDelay):
		case <-ctx.Done():
			return false, ctx.Err()
		}
	case NodeFaultCorrupt:
		return true, nil
	}
	return false, nil
}

func (f *faultClient) Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error) {
	corrupt, err := f.inject(ctx)
	if err != nil {
		return nil, err
	}
	proof, err := f.inner.Dispatch(ctx, req)
	if err != nil || !corrupt {
		return proof, err
	}
	return flipByte(proof), nil
}

// msmFaultClient extends faultClient over the MSM dispatch surface. It
// exists as a separate type so WrapClient only advertises
// MSMWorkerClient when the wrapped client really implements it.
type msmFaultClient struct {
	*faultClient
}

func (f *msmFaultClient) DispatchMSM(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
	corrupt, err := f.inject(ctx)
	if err != nil {
		return nil, err
	}
	result, err := f.inner.(MSMWorkerClient).DispatchMSM(ctx, req)
	if err != nil || !corrupt {
		return result, err
	}
	return corruptMSMResult(req.Curve, result), nil
}

// flipByte returns a copy of b with a low bit of its middle byte
// flipped: a coordinate byte of a proof, not the point-encoding tag at
// index 0, whose corruption would fail unmarshalling rather than
// verification (the tag byte is covered by FuzzClusterWire).
func flipByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0x01
	}
	return out
}

// corruptMSMResult models a LYING worker, not line noise: it replaces
// the claimed shard sum with a different but perfectly valid curve
// point (claim + generator), which sails through point decoding and
// curve-membership checks — only the outsourced constant-size check can
// catch it. When the claim does not decode on the declared curve the
// corruption degrades to a byte flip (the junk-response path, caught at
// decode time).
func corruptMSMResult(curveName string, result []byte) []byte {
	crv, err := curve.ByName(curveName)
	if err == nil {
		if aff, perr := serial.UnmarshalPoint(crv, result); perr == nil {
			p := crv.NewXYZZ()
			crv.SetAffine(p, &aff)
			crv.NewAdder().Acc(p, &crv.Gen)
			out := crv.ToAffine(p)
			return serial.MarshalPoint(crv, &out, false)
		}
	}
	return flipByte(result)
}
