package service

import (
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/cluster"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/serial"
)

// readMSMBody reads an MSM dispatch body. MSM shards carry an explicit
// scalar blob and legitimately exceed the 64 KiB cap of readBody, so
// they get the cluster wire's own (larger, still bounded) cap; the
// parser re-checks the exact size.
func readMSMBody(r *http.Request) []byte {
	b, _ := io.ReadAll(io.LimitReader(r.Body, cluster.MaxMSMBody+1))
	return b
}

// This file is the service's worker-node face: the endpoints and
// methods that let a provd instance serve as one node of a
// cluster.Coordinator's fleet, and the in-process backend the
// coordinator degrades to when every remote node is down.
//
//	POST /v1/cluster/dispatch   coordinator → worker: one proof job
//	  request   cluster.DispatchRequest
//	  response  200 {"job_id", "proof"} on success
//	            200 {"job_id", "error"} on a terminal job error
//	            429 admission rejected (Retry-After, seconds)
//	            404 unknown circuit    503 shutting down
//	            400 malformed          499 coordinator abandoned the job
//
// Cancelling the dispatch request cancels the job: when the coordinator
// hedges a straggling job and another node wins, or a lost lease
// re-dispatches this node's jobs, the abandoned HTTP request's context
// dies and the worker stops burning GPUs on a result nobody wants.
//
// ProveLocal and VerifyProof structurally satisfy cluster.LocalBackend,
// so a *Service plugs into cluster.Config.Local without this package
// and internal/cluster importing each other cyclically (cluster stays
// free of a service dependency; service imports cluster only for the
// wire types).

// ProveLocal proves (circuit, seed) through the service's own queue and
// returns the marshalled proof. The job deadline is ctx's deadline when
// it has one (the coordinator's end-to-end job deadline), the service
// default otherwise. It is the coordinator's degrade-to-local backend
// and the in-process flavour of the dispatch endpoint below.
func (s *Service) ProveLocal(ctx context.Context, circuitName string, seed int64) ([]byte, error) {
	req := Request{Circuit: circuitName, Seed: seed}
	if dl, ok := ctx.Deadline(); ok {
		req.Timeout = time.Until(dl)
	}
	job, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	proof, err := job.Wait(ctx)
	if err != nil {
		job.Cancel() // caller gave up or the job failed: either way, stop it
		return nil, err
	}
	return s.eng.MarshalProof(proof), nil
}

// VerifyProof checks a marshalled proof of (circuit, seed) against the
// circuit's verifying key, regenerating the witness's public inputs
// from the seed server-side exactly like proving does. A proof that
// fails to decode reports (false, nil) rather than an error: from the
// caller's seat — the coordinator deciding whether a remote node
// returned garbage — an undecodable proof and a failed pairing check
// are the same verdict.
func (s *Service) VerifyProof(circuitName string, seed int64, proofBytes []byte) (bool, error) {
	s.mu.Lock()
	c := s.circuits[circuitName]
	s.mu.Unlock()
	if c == nil {
		return false, errors.New("service: unknown circuit: " + circuitName)
	}
	proof, err := s.eng.UnmarshalProof(proofBytes)
	if err != nil {
		return false, nil
	}
	w, err := c.witness(seed)
	if err != nil {
		return false, err
	}
	return s.eng.Verify(c.vk, proof, w[1:1+c.cs.NPublic])
}

// handleMSM serves one coordinator-dispatched MSM shard: Σ k_i·P_i over
// the explicit scalars and the base range named by (curve, point_seed,
// range), returned as an uncompressed serial point.
//
//	POST /v1/msm
//	  request   cluster.MSMDispatchRequest
//	  response  200 {"job_id", "result"} on success
//	            200 {"job_id", "error"}  on a terminal evaluation error
//	            400 malformed
//	            499 coordinator abandoned the shard
//	            504 the request's timeout_ms expired
//
// The worker cannot tell a real instance from a challenge instance —
// both frame identically (same curve, seed, range and scalar width) —
// so it cannot selectively cheat only where it will not be graded.
//
// The shard runs on the DistMSM engine (evalShard), under the request's
// context bounded by its timeout_ms: an abandoned or expired shard
// stops at the engine's next shard boundary instead of running out.
func (s *Service) handleMSM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := cluster.ParseMSMDispatchRequest(readMSMBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scalars, err := req.DecodeScalars()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	crv, err := curve.ByName(req.Curve)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if d := req.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	sum, err := s.evalShard(ctx, crv, req, scalars)
	s.metrics.observeShard(time.Since(start).Seconds())
	switch {
	case err == nil:
		aff := crv.ToAffine(sum)
		writeJSON(w, cluster.MSMDispatchResponse{
			JobID:  req.JobID,
			Result: hex.EncodeToString(serial.MarshalPoint(crv, &aff, false)),
		})
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case ctx.Err() != nil:
		// The coordinator abandoned the dispatch; the status code is for
		// the access log only.
		http.Error(w, err.Error(), 499)
	default:
		writeJSON(w, cluster.MSMDispatchResponse{JobID: req.JobID, Error: err.Error()})
	}
}

// evalShard evaluates one shard on the service's simulated cluster with
// the same engine options as a proof's MSMs (msmOptions), so fault
// injection, retries, result verification and the MSM metrics cover
// outsourced shards too. The bases are resident: the first request for
// a (curve, point_seed, range, scalar_bits) derives the range and builds
// fixed-base tables over it (shardTables); every later one only scatters
// its scalars into them. A range whose tables are not cacheable derives
// its points per request and runs the variable-base plan instead.
//
// The scalars are integers up to req.ScalarBits wide — the outsourced
// check's challenge instance runs ~λ bits past the scalar field — and
// the engine rejects anything above the curve's ScalarBits, so the shard
// runs on a width-widened copy of the curve.
func (s *Service) evalShard(ctx context.Context, crv *curve.Curve, req cluster.MSMDispatchRequest, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
	wc := *crv
	wc.ScalarBits = req.ScalarBits
	tables, err := s.shardTables(ctx, &wc, req)
	if err != nil {
		return nil, err
	}
	var points []curve.PointAffine
	var fb *core.FixedBase
	if tables != nil {
		points, fb = tables.points, tables.fb
	} else {
		points = wc.SamplePoints(req.RangeHi, req.PointSeed)[req.RangeLo:req.RangeHi]
	}
	res, err := core.RunContext(ctx, &wc, s.cluster, points, scalars, s.msmOptions(ctx, fb))
	if err != nil {
		return nil, err
	}
	s.metrics.observeMSM(res.Stats.Faults)
	return res.Point, nil
}

// handleClusterDispatch serves one coordinator-dispatched job.
func (s *Service) handleClusterDispatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := cluster.ParseDispatchRequest(readBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(Request{Circuit: req.Circuit, Seed: req.Seed, Timeout: req.Timeout()})
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	proof, err := job.Wait(r.Context())
	if err != nil {
		job.Cancel()
		if r.Context().Err() != nil {
			// The coordinator abandoned the dispatch (hedge lost, lease
			// re-dispatch, client gone): the job is cancelled above and the
			// status code is for the access log only.
			http.Error(w, err.Error(), 499)
			return
		}
		// A terminal job error travels as a dispatch-response error so the
		// coordinator can tell "this node failed the job" from "this node
		// is unreachable".
		writeJSON(w, cluster.DispatchResponse{JobID: req.JobID, Error: err.Error()})
		return
	}
	writeJSON(w, cluster.DispatchResponse{
		JobID: req.JobID,
		Proof: hex.EncodeToString(s.eng.MarshalProof(proof)),
	})
}
