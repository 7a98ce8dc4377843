package cluster

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/msm"
	"distmsm/internal/outsource"
	"distmsm/internal/serial"
)

// This file is the coordinator's outsourced-MSM path: one large MSM is
// split into contiguous index-range shards, each shard is dispatched to
// untrusted worker nodes, and each claim is accepted only after the
// constant-size check of internal/outsource — never by recomputing the
// shard.
//
// Per shard the coordinator derives a secret challenge instance
// (internal/outsource: y = α·x + sparse mask over the integers) and
// dispatches the real and challenge instances as two structurally
// identical messages, to two distinct nodes whenever two admit — a
// single node holding both instances could recover the secrets by ratio
// analysis, while oblivious faults (bit flips, truncated kernels, stale
// device buffers) are caught regardless of placement. The shard is
// accepted iff the two claims satisfy the check's constant-size
// relation.
//
// When the check rejects, the coordinator must decide which node lied
// before charging a breaker — charging both would let one bad node
// quarantine a healthy one. It adjudicates by recomputing the shard's
// reference locally: the node whose claim disagrees is charged exactly
// like a corrupt proof (breaker failure + corrupt counter) and the
// shard re-routes away from it. The recompute runs only on the
// rejection path; the accept path — the common case — stays constant
// size. A production deployment without local compute would arbitrate
// with a fresh challenge through a third node instead; the simulated
// coordinator holds the (deterministically derived) bases anyway, so
// local adjudication is available and decisive.

// ErrCorruptMSM reports an MSM shard claim that failed the outsourced
// check — the MSM analogue of ErrCorruptProof.
var ErrCorruptMSM = errors.New("cluster: MSM shard failed the outsourced check")

// MSMWorkerClient is the optional MSM extension of WorkerClient: a
// transport to a node that serves /v1/msm. The coordinator routes MSM
// shards only to nodes whose client implements it, so existing
// WorkerClient implementations (and test fakes) are unaffected.
type MSMWorkerClient interface {
	// DispatchMSM computes one MSM shard on the node and returns the
	// marshalled (uncompressed serial) result point. Context rules
	// mirror WorkerClient.Dispatch.
	DispatchMSM(ctx context.Context, req MSMDispatchRequest) ([]byte, error)
}

// msmRand returns the coordinator's secret-randomness source for the
// outsourced checks.
func (c *Coordinator) msmRand() io.Reader {
	if c.cfg.MSMRandom != nil {
		return c.cfg.MSMRandom
	}
	return rand.Reader
}

// MSM runs one verifiable outsourced MSM through the cluster: shard,
// dispatch real + challenge instances, accept each shard after the
// constant-size check, and fold the shard sums in deterministic index
// order. Returns the uncompressed serial encoding of the result point —
// byte-identical to marshalling curve.MSMReference over the same
// instance, whatever faults the fleet throws.
func (c *Coordinator) MSM(ctx context.Context, req MSMRequest) ([]byte, error) {
	crv, err := curve.ByName(req.Curve)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if req.N < 1 || req.N > MaxMSMPoints {
		return nil, fmt.Errorf("%w: n %d outside [1, %d]", ErrBadMessage, req.N, MaxMSMPoints)
	}
	ctx, cancel, jobID, err := c.startJob(ctx, req.Timeout)
	if err != nil {
		return nil, err
	}
	defer cancel()

	// The instance is named by seeds, derived here exactly as the
	// workers derive their base ranges. The coordinator needs the bases
	// only for mask-point snapshots (s per shard) and for rejection-path
	// adjudication; the per-shard acceptance work stays constant size.
	points := crv.SamplePoints(req.N, req.PointSeed)
	scalars := crv.SampleScalars(req.N, req.ScalarSeed)

	shards := msmShardRanges(req.N, c.msmNodeCount())
	results := make([]*curve.PointXYZZ, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			results[i], errs[i] = c.msmShard(ctx, jobID, crv, req, points, scalars, lo, hi)
		}(i, sh[0], sh[1])
	}
	wg.Wait()
	total := crv.NewXYZZ()
	a := crv.NewAdder()
	for i := range shards {
		if errs[i] != nil {
			c.bump(&c.stats.JobsFailed)
			return nil, errs[i]
		}
		a.Add(total, results[i])
	}
	c.bump(&c.stats.JobsCompleted)
	aff := crv.ToAffine(total)
	return serial.MarshalPoint(crv, &aff, false), nil
}

// msmNodeCount counts nodes that could take an MSM shard right now —
// only a sizing hint for sharding; admission happens per dispatch.
func (c *Coordinator) msmNodeCount() int {
	now := c.tick(time.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	for _, n := range c.nodes {
		if n.canTake(now, c.cfg.Breaker, true) {
			count++
		}
	}
	return count
}

// msmShardRanges splits [0, n) into contiguous ranges: one per
// MSM-capable node (so the fleet works in parallel), but never fewer
// than the wire's shard cap forces and never more than n.
func msmShardRanges(n, nodes int) [][2]int {
	shards := nodes
	if shards < 1 {
		shards = 1
	}
	if min := (n + MaxMSMShard - 1) / MaxMSMShard; shards < min {
		shards = min
	}
	if shards > n {
		shards = n
	}
	out := make([][2]int, 0, shards)
	size := (n + shards - 1) / shards
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// msmShard runs one shard to acceptance: derive fresh secrets, dispatch
// both instances, run the constant-size check, adjudicate and re-route
// on rejection, and degrade to local evaluation when no node admits.
func (c *Coordinator) msmShard(ctx context.Context, jobID uint64, crv *curve.Curve, req MSMRequest, points []curve.PointAffine, scalars []bigint.Nat, lo, hi int) (*curve.PointXYZZ, error) {
	exclude := map[string]bool{}
	var lastErr error
	for try := 0; try < c.cfg.MaxAttempts; try++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Fresh secrets every attempt: a rejected attempt leaked nothing,
		// but reusing α across re-dispatches would hand a second sample to
		// whichever node sees the retry.
		ck, err := outsource.NewCheck(crv, points[lo:hi], scalars[lo:hi], outsource.Params{}, c.msmRand())
		if err != nil {
			return nil, err
		}
		bits := ck.ChallengeBits()
		frame := MSMDispatchRequest{
			JobID:      jobID,
			Curve:      req.Curve,
			PointSeed:  req.PointSeed,
			RangeLo:    lo,
			RangeHi:    hi,
			ScalarBits: bits,
		}
		realReq, chalReq := frame, frame
		realReq.Scalars = EncodeMSMScalars(scalars[lo:hi], bits)
		chalReq.Scalars = EncodeMSMScalars(ck.Challenge(), bits)

		nReal, probeReal := c.pickNode("", exclude, true)
		if nReal == nil {
			return c.msmLocal(crv, points, scalars, lo, hi)
		}
		if try > 0 {
			c.bump(&c.stats.Redispatches)
			c.metrics.observeRedispatch()
		}
		// Distinct challenge node whenever a second one admits (the
		// adaptive-adversary caveat); otherwise the same node takes both —
		// oblivious faults are caught regardless of placement. The halves
		// are not hedged for the same reason: in a two-node fleet a hedge
		// of one half lands on its partner's node, handing one node both
		// instances.
		pairExclude := map[string]bool{nReal.id: true}
		for id := range exclude {
			pairExclude[id] = true
		}
		nChal, probeChal := c.pickNode("", pairExclude, true)
		if nChal == nil {
			nChal, probeChal = nReal, false
		}

		var r, t *curve.PointXYZZ
		var secR, secT float64
		var errR, errT error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); r, secR, errR = c.dispatchMSM(ctx, nReal, probeReal, realReq, crv) }()
		go func() { defer wg.Done(); t, secT, errT = c.dispatchMSM(ctx, nChal, probeChal, chalReq, crv) }()
		wg.Wait()
		if errR != nil || errT != nil {
			// Settle the half that answered, if any: without its counterpart
			// the claim is unusable and the attempt re-runs, but the node did
			// deliver a well-formed answer.
			if errR == nil {
				c.recordDispatch(nReal, true, secR, "")
			}
			if errT == nil {
				c.recordDispatch(nChal, true, secT, "")
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errR != nil {
				lastErr = errR
				exclude[nReal.id] = true
			}
			if errT != nil {
				lastErr = errT
				exclude[nChal.id] = true
			}
			continue
		}

		// The accept decision: constant group work, independent of hi-lo.
		// A delivered claim settles its node's breaker only here, by the
		// check's verdict — settling "success" at decode time would let a
		// consistent liar alternate success and failure on its breaker and
		// never trip it.
		start := time.Now()
		ok := ck.Verify(r, t)
		c.mu.Lock()
		c.stats.MSMChecks++
		if !ok {
			c.stats.MSMRejects++
		}
		c.mu.Unlock()
		c.metrics.observeOutsourceCheck(ok, time.Since(start).Seconds())
		if ok {
			c.recordDispatch(nReal, true, secR, "")
			c.recordDispatch(nChal, true, secT, "")
			return r, nil
		}

		// Rejection: adjudicate locally, charge the liar like a corrupt
		// proof, and either keep the vindicated real claim or re-route.
		ref := crv.MSMReference(points[lo:hi], scalars[lo:hi])
		liar, vind, vindSec := nReal, nChal, secT
		if crv.EqualXYZZ(r, ref) {
			liar, vind, vindSec = nChal, nReal, secR
		}
		if vind != liar {
			c.recordDispatch(vind, true, vindSec, "")
		}
		c.chargeCorrupt(liar)
		lastErr = fmt.Errorf("%w (node %s)", ErrCorruptMSM, liar.id)
		exclude[liar.id] = true
		if liar != nReal {
			// The challenge node lied; the real claim matched the reference
			// and is safe to keep.
			return r, nil
		}
	}
	return nil, fmt.Errorf("cluster: MSM shard [%d, %d) failed after %d attempts: %w", lo, hi, c.cfg.MaxAttempts, lastErr)
}

// msmLocal evaluates a shard in-process — the degrade path when no
// MSM-capable node admits, mirroring proveLocal. The real scalars fit
// the scalar field, so the shard runs on the CPU Pippenger; the
// double-and-add reference stays the rejection path's adjudicator only.
func (c *Coordinator) msmLocal(crv *curve.Curve, points []curve.PointAffine, scalars []bigint.Nat, lo, hi int) (*curve.PointXYZZ, error) {
	c.bump(&c.stats.LocalFallbacks)
	c.metrics.observeLocalFallback()
	return msm.MSM(crv, points[lo:hi], scalars[lo:hi], msm.Config{Signed: true})
}

// dispatchMSM is one attempt carrying a shard half, then the decode of
// the claimed point. Junk that is not a curve point is charged like any
// corrupt response — no outsourced check is needed to see it. A decoded
// claim comes back unsettled: the caller settles it by the check's
// verdict, so a lying node's breaker sees an unbroken failure streak.
func (c *Coordinator) dispatchMSM(ctx context.Context, n *node, probe bool, req MSMDispatchRequest, crv *curve.Curve) (*curve.PointXYZZ, float64, error) {
	raw, sec, err := c.attempt(ctx, n, probe, func(actx context.Context, timeoutMS int64) ([]byte, error) {
		mc, ok := n.client.(MSMWorkerClient)
		if !ok { // re-registered since the pick, with a client that does not
			return nil, fmt.Errorf("cluster: node %s does not serve MSM shards", n.id)
		}
		req.TimeoutMS = timeoutMS
		return mc.DispatchMSM(actx, req)
	})
	if err != nil {
		return nil, sec, err
	}
	aff, err := serial.UnmarshalPoint(crv, raw)
	if err != nil {
		c.chargeCorrupt(n)
		return nil, sec, fmt.Errorf("%w: node %s returned a non-point: %v", ErrCorruptMSM, n.id, err)
	}
	p := crv.NewXYZZ()
	crv.SetAffine(p, &aff)
	return p, sec, nil
}
