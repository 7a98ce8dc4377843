package cluster

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
)

// This file is the coordinator's HTTP face.
//
// Wire schema (v1)
//
//	POST /v1/cluster/register     worker → coordinator: join / rejoin
//	  request   RegisterRequest   response RegisterResponse
//	POST /v1/cluster/heartbeat    worker → coordinator: lease renewal
//	  request   HeartbeatRequest  response HeartbeatResponse
//	            (Reregister=true asks the node to register again)
//	POST /v1/cluster/deregister   worker → coordinator: graceful drain
//	  request   DeregisterRequest response {"ok": true}
//
//	POST /v1/prove                client-facing, same shape as provd's:
//	  request   {"circuit": "<name>", "seed": <int64>, "timeout_ms": <opt>}
//	  response  200 {"proof": "<hex>"}
//	            400 malformed   503 no nodes / shutting down
//	            504 job deadline blown   499 client closed request
//
//	GET /v1/healthz               node table (503 when no node is alive
//	                              and no local fallback exists)
//	GET /v1/cluster/nodes         node table only (always 200)
//	GET /v1/stats                 counters snapshot
//	GET /v1/metrics, /metrics     Prometheus text (when Config.Metrics set)
//
// Malformed messages are rejected with 400 before they touch coordinator
// state — FuzzClusterWire holds the whole surface to "never panic, never
// grow the node table on junk".

func readWireBody(r *http.Request) []byte {
	return readCapped(r.Body, maxWireBody)
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/register", c.handleRegister)
	mux.HandleFunc("/v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/cluster/deregister", c.handleDeregister)
	mux.HandleFunc("/v1/prove", c.handleProve)
	mux.HandleFunc("/v1/msm", c.handleMSM)
	mux.HandleFunc("/v1/healthz", c.handleHealthz)
	mux.HandleFunc("/v1/cluster/nodes", c.handleNodes)
	mux.HandleFunc("/v1/stats", c.handleStats)
	if c.metrics != nil {
		mux.Handle("/v1/metrics", c.metrics.reg.Handler())
	}
	return mux
}

func writeClusterJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	req, err := ParseRegisterRequest(readWireBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := c.Register(req)
	switch {
	case errors.Is(err, ErrTooManyNodes):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrShuttingDown):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeClusterJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	req, err := ParseHeartbeatRequest(readWireBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil && !errors.Is(err, ErrStaleLease) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A stale heartbeat is answered 200 {"ok": false}: the node is not
	// wrong to exist, its datagram was just late.
	writeClusterJSON(w, resp)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	req, err := ParseDeregisterRequest(readWireBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.Deregister(req); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownNode) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeClusterJSON(w, map[string]any{"ok": true})
}

func (c *Coordinator) handleProve(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	req, err := ParseProveRequest(readWireBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	proof, err := c.Prove(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), jobErrorStatus(err))
		return
	}
	writeClusterJSON(w, map[string]any{"proof": hex.EncodeToString(proof)})
}

// jobErrorStatus maps the error of a parsed /v1/prove or /v1/msm job
// onto its HTTP status. A malformed request never gets here (400 at
// parse time), so an ErrBadMessage inside a job error is a worker's bad
// answer — a server-side failure, not the client's.
func jobErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoNodes), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // nginx's "client closed request"
	}
	return http.StatusInternalServerError
}

// handleMSM serves a client-facing outsourced MSM: the instance is
// named by (curve, point_seed, scalar_seed, n), sharded across the
// fleet, and every shard claim passes the constant-size check before it
// is folded into the answer.
//
//	POST /v1/msm
//	  request   {"curve", "point_seed", "scalar_seed", "n", "timeout_ms"?}
//	  response  200 {"result": "<hex uncompressed point>"}
//	            400 malformed   503 shutting down
//	            504 job deadline blown   499 client closed request
func (c *Coordinator) handleMSM(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	req, err := ParseMSMRequest(readWireBody(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	result, err := c.MSM(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), jobErrorStatus(err))
		return
	}
	writeClusterJSON(w, map[string]any{"result": hex.EncodeToString(result)})
}

// handleHealthz reports the node table. Honest degradation, mirroring
// the worker's healthz: 503 only when the cluster can prove nothing at
// all (no live node AND no local fallback); a cluster that lost some
// nodes but can still serve stays 200 with "degraded": true.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := c.Snapshot()
	alive := 0
	for _, n := range nodes {
		if n.State == "alive" {
			alive++
		}
	}
	degraded := alive < len(nodes)
	down := alive == 0 && c.cfg.Local == nil
	if down {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeClusterJSON(w, map[string]any{
		"status":   healthStatus(down, degraded),
		"degraded": degraded,
		"alive":    alive,
		"nodes":    nodes,
	})
}

func healthStatus(down, degraded bool) string {
	switch {
	case down:
		return "down"
	case degraded:
		return "degraded"
	}
	return "ok"
}

// handleNodes serves the node table alone — the operator's view of who
// is alive, lost or draining, each node's breaker state, in-flight
// count and dispatch/failure counts. Unlike healthz it never answers
// 503: an empty cluster is an answer, not an outage.
func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeClusterJSON(w, map[string]any{"nodes": c.Snapshot()})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeClusterJSON(w, c.Stats())
}
