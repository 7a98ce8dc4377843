package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// This file is the cluster's HTTP transport: the coordinator's client
// to a worker's /v1/cluster/dispatch and /v1/msm endpoints, and the worker-side
// Agent that registers with a coordinator and keeps its heartbeat lease
// alive. Both speak the wire types of wire.go and nothing else.

// readCapped reads at most limit+1 bytes of a response body; the +1
// lets the parser reject an oversized body instead of silently
// truncating it into a different (possibly valid) message.
func readCapped(r io.Reader, limit int64) []byte {
	b, _ := io.ReadAll(io.LimitReader(r, limit+1))
	return b
}

// postJSON POSTs req as JSON to url and returns the response body, read
// up to limit. A status other than 200 is an error carrying the body.
// Every cluster message the coordinator or an agent sends goes through
// it.
func postJSON(ctx context.Context, hc *http.Client, url string, req any, limit int64) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb := readCapped(resp.Body, limit)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(rb)))
	}
	return rb, nil
}

// HTTPWorkerClient dispatches jobs to one worker node over HTTP.
type HTTPWorkerClient struct {
	base string
	hc   *http.Client
}

// NewHTTPWorkerClient builds a client for the worker at base (scheme +
// host, e.g. "http://10.0.0.7:8080"). No per-request timeout is set on
// the http.Client: the dispatch context carries the job deadline, and a
// partitioned node is detected by that deadline or by the lease expiry
// cancelling the attempt.
func NewHTTPWorkerClient(base string) *HTTPWorkerClient {
	return &HTTPWorkerClient{base: strings.TrimSuffix(base, "/"), hc: &http.Client{}}
}

// Dispatch implements WorkerClient.
func (c *HTTPWorkerClient) Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error) {
	// Dispatch responses carry a proof, so they get the larger cap that
	// makes maxProofHex reachable.
	rb, err := postJSON(ctx, c.hc, c.base+"/v1/cluster/dispatch", req, maxDispatchRespBody)
	if err != nil {
		return nil, err
	}
	w, proof, err := ParseDispatchResponse(rb)
	return c.answer(proof, w.Error, err)
}

// DispatchMSM implements MSMWorkerClient against the worker's /v1/msm
// endpoint, returning the decoded result-point bytes.
func (c *HTTPWorkerClient) DispatchMSM(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
	rb, err := postJSON(ctx, c.hc, c.base+"/v1/msm", req, maxWireBody)
	if err != nil {
		return nil, err
	}
	w, result, err := ParseMSMDispatchResponse(rb)
	return c.answer(result, w.Error, err)
}

// answer turns a parsed worker response into a dispatch result: the
// worker's own error answer becomes the dispatch error.
func (c *HTTPWorkerClient) answer(payload []byte, workerErr string, err error) ([]byte, error) {
	if err == nil && workerErr != "" {
		err = fmt.Errorf("cluster: worker %s: %s", c.base, workerErr)
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// AgentConfig configures a worker-side cluster Agent.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// NodeID identifies this node; it must be stable across restarts of
	// the same node so re-registration resumes the same table entry.
	NodeID string
	// Addr is the address the coordinator should dispatch to — this
	// node's own HTTP listener, as reachable from the coordinator.
	Addr string
	// Circuits advertises what this node can prove (informational).
	Circuits []string
	// Workers advertises the node's proving-pool size (informational).
	Workers int
	// Interval overrides the heartbeat cadence; 0 uses the lease the
	// coordinator granted divided by three.
	Interval time.Duration
	// Client overrides the HTTP client (tests); nil uses a default.
	Client *http.Client
	// Load, when set, is sampled on every heartbeat to report the
	// node's queue depth and in-flight count.
	Load func() (queued, inFlight int)
	// Logf, when set, receives agent lifecycle messages.
	Logf func(format string, args ...any)
}

// Agent keeps one worker registered with its coordinator: it registers,
// heartbeats every lease/3, re-registers when the coordinator asks
// (coordinator restart, forgotten lease), and keeps retrying through
// coordinator outages. Stop for a graceful drain: the agent sends a
// deregister (so the coordinator stops routing here but lets in-flight
// jobs finish) and stops heartbeating.
type Agent struct {
	cfg  AgentConfig
	hc   *http.Client
	stop context.CancelFunc
	done chan struct{}

	mu  sync.Mutex
	seq uint64
}

// StartAgent registers with the coordinator and starts the heartbeat
// loop. Registration failures are retried by the loop, so a worker can
// start before its coordinator does.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" || cfg.NodeID == "" || cfg.Addr == "" {
		return nil, fmt.Errorf("%w: AgentConfig needs Coordinator, NodeID and Addr", ErrBadMessage)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Agent{cfg: cfg, hc: cfg.Client, done: make(chan struct{})}
	if a.hc == nil {
		a.hc = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	a.stop = cancel
	interval, err := a.register(ctx)
	if err != nil {
		// Not fatal: the coordinator may simply not be up yet. Heartbeats
		// will keep asking and re-register on Reregister.
		a.cfg.Logf("cluster agent %s: initial registration failed (will retry): %v", cfg.NodeID, err)
		interval = 2 * time.Second
	}
	go a.loop(ctx, interval)
	return a, nil
}

// Stop drains the agent: deregister (best effort), stop heartbeating,
// and wait for the loop to exit. The coordinator stops routing new jobs
// here immediately; jobs already dispatched to this node are left to
// finish, which is what a graceful provd shutdown needs.
func (a *Agent) Stop() {
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = a.post(dctx, "/v1/cluster/deregister", DeregisterRequest{NodeID: a.cfg.NodeID}, nil)
	a.stop()
	<-a.done
}

// Kill stops the agent abruptly — no deregister, heartbeats just stop,
// exactly what the coordinator observes when the node process dies. The
// coordinator marks the node lost when its lease expires and
// re-dispatches its jobs. Chaos harnesses use this; operators want Stop.
func (a *Agent) Kill() {
	a.stop()
	<-a.done
}

func (a *Agent) post(ctx context.Context, path string, req, into any) error {
	rb, err := postJSON(ctx, a.hc, strings.TrimSuffix(a.cfg.Coordinator, "/")+path, req, maxWireBody)
	if err != nil || into == nil {
		return err
	}
	if err := json.Unmarshal(rb, into); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// register announces the node and returns the heartbeat interval the
// coordinator granted.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	var resp RegisterResponse
	err := a.post(ctx, "/v1/cluster/register", RegisterRequest{
		NodeID:   a.cfg.NodeID,
		Addr:     a.cfg.Addr,
		Circuits: a.cfg.Circuits,
		Workers:  a.cfg.Workers,
	}, &resp)
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	a.seq = 0 // a fresh registration resets the coordinator's seq floor
	a.mu.Unlock()
	interval := a.cfg.Interval
	if interval <= 0 {
		interval = time.Duration(resp.HeartbeatMS) * time.Millisecond
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	a.cfg.Logf("cluster agent %s: registered with %s (lease %dms, heartbeat every %v)",
		a.cfg.NodeID, a.cfg.Coordinator, resp.LeaseMS, interval)
	return interval, nil
}

func (a *Agent) loop(ctx context.Context, interval time.Duration) {
	defer close(a.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		a.mu.Lock()
		a.seq++
		req := HeartbeatRequest{NodeID: a.cfg.NodeID, Seq: a.seq}
		a.mu.Unlock()
		if a.cfg.Load != nil {
			req.Queued, req.InFlight = a.cfg.Load()
		}
		var resp HeartbeatResponse
		hctx, cancel := context.WithTimeout(ctx, interval)
		err := a.post(hctx, "/v1/cluster/heartbeat", req, &resp)
		cancel()
		switch {
		case err != nil:
			a.cfg.Logf("cluster agent %s: heartbeat failed: %v", a.cfg.NodeID, err)
		case resp.Reregister:
			if ni, rerr := a.register(ctx); rerr == nil && ni != interval {
				interval = ni
				t.Reset(interval)
			}
		}
	}
}
