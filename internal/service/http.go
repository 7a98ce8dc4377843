package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"distmsm/internal/gpusim"
)

// This file is the service's HTTP face: a small JSON API over Submit
// and SubmitBatch. Requests stay tiny — a circuit name and a witness
// seed — because the witness is generated server-side by the registered
// generator; clients never ship multi-megabyte witnesses over the wire.
//
// Wire schema (v1)
//
//	POST /v1/prove
//	  request   {"circuit": "<name>", "seed": <int64>, "timeout_ms": <int64, optional>}
//	  response  200 {"job_id": <uint64>, "proof": "<hex>"}
//	            400 malformed request   404 unknown circuit
//	            429 admission rejected (Retry-After header, seconds)
//	            503 shutting down       504 job deadline blown
//	            499 client closed request
//
//	POST /v1/batch
//	  request   {"jobs": [<prove request>, ...]}   (1..maxBatchJobs)
//	  response  200 {"jobs": [{"job_id": <uint64>, "proof": "<hex>"}
//	                          | {"job_id": <uint64>, "error": "<msg>"}, ...]}
//	            in request order. Admission is all-or-nothing: the batch
//	            as a whole gets the 400/404/429/503 treatment above, so a
//	            client never unwinds a half-accepted batch; per-job
//	            failures after admission surface as "error" entries.
//
//	GET /v1/healthz   per-GPU breaker states. Degrades honestly: 503 only
//	                  when EVERY GPU is quarantined (the node cannot
//	                  prove); some-but-not-all quarantined stays 200 with
//	                  "degraded": true — capacity is reduced, not gone.
//	                  A cluster coordinator's node breaker keys off the
//	                  503, an autoscaler can key off "degraded".
//	GET /v1/stats     counters snapshot (base-cache hit/miss/eviction,
//	                  quota rejects, shed counts) plus "job_seconds"
//	                  p50/p99/p999 when a metrics registry is configured
//	GET /v1/metrics   Prometheus text exposition (when Config.Metrics set)
//
//	POST /v1/cluster/dispatch   coordinator-dispatched proof job (see
//	                            cluster.go for the worker-node surface)
//	POST /v1/msm                coordinator-dispatched MSM shard: evaluate
//	                            the explicit scalars over the base range
//	                            named by (curve, point_seed, range) on
//	                            the DistMSM engine — from fixed-base
//	                            tables kept resident per range — and
//	                            return the sum; honours timeout_ms (504)
//	                            and the coordinator hanging up (499).
//	                            The worker cannot tell a real instance
//	                            from the coordinator's secret challenge
//	                            instance (see cluster.go and
//	                            internal/outsource).

// maxJobTimeout caps client-requested deadlines so one request cannot
// pin a worker for an hour.
const maxJobTimeout = 10 * time.Minute

// maxCircuitName bounds the circuit-name length accepted on the wire.
const maxCircuitName = 64

// maxBatchJobs bounds the per-request batch size; larger workloads
// split into multiple batches (which the queue coalesces anyway).
const maxBatchJobs = 64

// jobRequestWire is the POST /v1/prove body (and one /v1/batch entry).
type jobRequestWire struct {
	Circuit   string `json:"circuit"`
	Seed      int64  `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// batchRequestWire is the POST /v1/batch body.
type batchRequestWire struct {
	Jobs []jobRequestWire `json:"jobs"`
}

// ParseJobRequest decodes and validates a wire-format job request. It
// is deliberately strict — unknown fields, oversized names,
// non-printable names and out-of-range timeouts are all rejected with
// errors wrapping ErrBadRequest — and it never panics on any input
// (FuzzJobRequest holds it to that).
func ParseJobRequest(body []byte) (Request, error) {
	var w jobRequestWire
	if err := json.Unmarshal(body, &w); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return validateJobWire(w)
}

func validateJobWire(w jobRequestWire) (Request, error) {
	if w.Circuit == "" {
		return Request{}, fmt.Errorf("%w: missing circuit name", ErrBadRequest)
	}
	if len(w.Circuit) > maxCircuitName {
		return Request{}, fmt.Errorf("%w: circuit name longer than %d bytes", ErrBadRequest, maxCircuitName)
	}
	for _, r := range w.Circuit {
		if r < 0x21 || r > 0x7E {
			return Request{}, fmt.Errorf("%w: circuit name contains non-printable or space character %q", ErrBadRequest, r)
		}
	}
	if w.TimeoutMS < 0 {
		return Request{}, fmt.Errorf("%w: negative timeout_ms", ErrBadRequest)
	}
	timeout := time.Duration(w.TimeoutMS) * time.Millisecond
	if timeout > maxJobTimeout {
		return Request{}, fmt.Errorf("%w: timeout_ms above the %v cap", ErrBadRequest, maxJobTimeout)
	}
	return Request{Circuit: w.Circuit, Seed: w.Seed, Timeout: timeout}, nil
}

// ParseBatchRequest decodes and validates a wire-format batch request:
// every entry is held to the same rules as ParseJobRequest, the batch
// must be non-empty and at most maxBatchJobs entries. Never panics on
// any input (FuzzBatchRequest holds it to that).
func ParseBatchRequest(body []byte) ([]Request, error) {
	var w batchRequestWire
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(w.Jobs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(w.Jobs) > maxBatchJobs {
		return nil, fmt.Errorf("%w: batch of %d jobs above the %d cap", ErrBadRequest, len(w.Jobs), maxBatchJobs)
	}
	reqs := make([]Request, len(w.Jobs))
	for i, jw := range w.Jobs {
		req, err := validateJobWire(jw)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		reqs[i] = req
	}
	return reqs, nil
}

// Handler returns the service's HTTP API (see the wire-schema block at
// the top of this file).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/prove", s.handleProve)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/cluster/dispatch", s.handleClusterDispatch)
	mux.HandleFunc("/v1/msm", s.handleMSM)
	if s.metrics != nil {
		mux.Handle("/v1/metrics", s.metrics.reg.Handler())
	}
	return mux
}

// readBody reads at most 64 KiB of request body — more than any valid
// request; the cap keeps a hostile client from ballooning the server.
func readBody(r *http.Request) []byte {
	body := make([]byte, 0, 256)
	buf := make([]byte, 256)
	for len(body) < 1<<16 {
		n, err := r.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return body
}

// writeSubmitError maps a Submit/SubmitBatch error onto the wire.
func writeSubmitError(w http.ResponseWriter, err error) {
	var full *QueueFullError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(full.RetryAfter.Seconds())+1))
		http.Error(w, full.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrUnknownCircuit):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrShuttingDown):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	reqs, err := ParseBatchRequest(readBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	jobs, err := s.SubmitBatch(reqs)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	out := make([]map[string]any, len(jobs))
	for i, job := range jobs {
		proof, err := job.Wait(r.Context())
		if err != nil {
			// The client vanished: stop every job of the batch, not just
			// this one — nobody is waiting for the rest either.
			if r.Context().Err() != nil {
				for _, j := range jobs {
					j.Cancel()
				}
				http.Error(w, err.Error(), 499)
				return
			}
			out[i] = map[string]any{"job_id": job.ID, "error": err.Error()}
			continue
		}
		out[i] = map[string]any{
			"job_id": job.ID,
			"proof":  hex.EncodeToString(s.eng.MarshalProof(proof)),
		}
	}
	writeJSON(w, map[string]any{"jobs": out})
}

func (s *Service) handleProve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := ParseJobRequest(readBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	proof, err := job.Wait(r.Context())
	if err != nil {
		job.Cancel() // client went away or job failed: either way, stop it
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			// 499 is nginx's "client closed request"; net/http has no name
			// for it but it is the conventional code.
			code = 499
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, map[string]any{
		"job_id": job.ID,
		"proof":  hex.EncodeToString(s.eng.MarshalProof(proof)),
	})
}

// handleHealthz degrades honestly: a node with SOME quarantined GPUs
// still proves (the planner routes around them), so it answers 200 with
// "degraded": true; only a node where EVERY GPU is open — nothing left
// to plan onto without the emergency re-admission — answers 503, with
// the per-GPU breaker detail either way. Returning 503 on any single
// quarantined GPU (the old behaviour) made one sick device read as a
// dead node to load balancers and to the cluster coordinator.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.Health()
	quarantined := 0
	gpus := make([]map[string]any, len(snap))
	for i, h := range snap {
		if h.State == gpusim.BreakerOpen {
			quarantined++
		}
		gpus[i] = map[string]any{
			"gpu":    h.GPU,
			"state":  h.State.String(),
			"streak": h.ConsecutiveFaults,
			"trips":  h.Trips,
			"shards": h.Shards,
			"faults": h.Faults,
		}
	}
	down := len(snap) > 0 && quarantined == len(snap)
	status := "ok"
	switch {
	case down:
		status = "down"
		w.WriteHeader(http.StatusServiceUnavailable)
	case quarantined > 0:
		status = "degraded"
	}
	writeJSON(w, map[string]any{
		"status":      status,
		"degraded":    quarantined > 0,
		"quarantined": quarantined,
		"gpus":        gpus,
	})
}

// statsWire is the GET /v1/stats body: the counters snapshot plus
// latency quantiles interpolated from the distmsm_job_seconds histogram
// (present only when a metrics registry is configured and at least one
// job has finished — NaN has no JSON encoding).
type statsWire struct {
	Stats
	JobSeconds *quantilesWire `json:"job_seconds,omitempty"`
}

type quantilesWire struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	out := statsWire{Stats: s.Stats()}
	if s.metrics != nil && s.metrics.jobSeconds.Count() > 0 {
		h := s.metrics.jobSeconds
		out.JobSeconds = &quantilesWire{
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
