package cluster_test

// End-to-end over real HTTP: worker provd services on loopback
// listeners, real cluster Agents registering and heartbeating, a real
// coordinator routing /v1/prove — plus the honest-degradation contract
// of the coordinator's healthz, the metrics surface, and the agent's
// re-registration loop.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/service"
	"distmsm/internal/telemetry"
)

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterHTTPEndToEnd wires the full production topology in one
// process: two worker services behind loopback listeners, agents
// keeping their leases, a coordinator with a local verification
// backend, and a client proving over HTTP. One worker is then killed
// abruptly (agent stopped without deregistering, listener torn down)
// and the cluster must keep serving, report itself degraded, and
// count the lost node in its stats and metrics.
func TestClusterHTTPEndToEnd(t *testing.T) {
	check := clusterLeakCheck(t)
	const constraints = 64
	ref := newProvingService(t, 2, constraints)

	lease := 400 * time.Millisecond
	metrics := telemetry.NewRegistry()
	coord := cluster.NewCoordinator(cluster.Config{
		Local:           ref,
		Lease:           lease,
		SweepInterval:   50 * time.Millisecond,
		DefaultTimeout:  60 * time.Second,
		DispatchTimeout: 5 * time.Second,
		Metrics:         metrics,
	})
	cts := httptest.NewServer(coord.Handler())

	type worker struct {
		svc   *service.Service
		ts    *httptest.Server
		agent *cluster.Agent
	}
	workers := make([]worker, 2)
	for i := range workers {
		svc := newProvingService(t, 2, constraints)
		ts := httptest.NewServer(svc.Handler())
		agent, err := cluster.StartAgent(cluster.AgentConfig{
			Coordinator: cts.URL,
			NodeID:      fmt.Sprintf("w%d", i),
			Addr:        ts.URL,
			Circuits:    []string{"synthetic"},
			Workers:     svc.Workers(),
			Interval:    100 * time.Millisecond,
			Load: func() (int, int) {
				st := svc.Stats()
				return st.Queued, st.InFlight
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = worker{svc: svc, ts: ts, agent: agent}
	}
	waitFor(t, func() bool { return coord.AliveNodes() == 2 }, "both workers to register")

	// A healthy cluster answers ok and proves through a worker node.
	code, health := getJSON(t, cts.URL+"/v1/healthz")
	if code != http.StatusOK || health["status"] != "ok" || health["degraded"] != false {
		t.Fatalf("healthy healthz: code %d body %v", code, health)
	}
	code, out := postJSON(t, cts.URL+"/v1/prove", `{"circuit":"synthetic","seed":5}`)
	if code != http.StatusOK {
		t.Fatalf("prove: HTTP %d body %v", code, out)
	}
	proof, err := hex.DecodeString(out["proof"].(string))
	if err != nil {
		t.Fatalf("proof not hex: %v", err)
	}
	refProof, err := ref.ProveLocal(context.Background(), "synthetic", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(proof, refProof) {
		t.Fatal("HTTP-proved proof differs from the local reference")
	}

	// Malformed requests are rejected at the edge.
	if code, _ := postJSON(t, cts.URL+"/v1/prove", `{"circuit":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty circuit: HTTP %d, want 400", code)
	}

	// Kill worker 0 the crash way: no deregister, heartbeats just stop,
	// connections die. The lease sweeper must notice on its own.
	workers[0].agent.Kill()
	workers[0].ts.CloseClientConnections()
	workers[0].ts.Close()
	waitFor(t, func() bool { return coord.AliveNodes() == 1 }, "the crashed worker's lease to expire")

	code, health = getJSON(t, cts.URL+"/v1/healthz")
	if code != http.StatusOK || health["status"] != "degraded" || health["degraded"] != true {
		t.Fatalf("degraded healthz: code %d body %v — a cluster that can still serve must stay 200", code, health)
	}
	// The cluster still proves after the crash.
	if code, out := postJSON(t, cts.URL+"/v1/prove", `{"circuit":"synthetic","seed":6}`); code != http.StatusOK {
		t.Fatalf("prove after crash: HTTP %d body %v", code, out)
	}

	// The operator's node table distinguishes the crashed node from the
	// survivor — and, unlike healthz, answers 200 regardless.
	code, table := getJSON(t, cts.URL+"/v1/cluster/nodes")
	if code != http.StatusOK {
		t.Fatalf("nodes: HTTP %d, want 200", code)
	}
	states := map[string]int{}
	for _, raw := range table["nodes"].([]any) {
		states[raw.(map[string]any)["state"].(string)]++
	}
	if states["alive"] != 1 || states["lost"] != 1 {
		t.Fatalf("node states %v, want 1 alive + 1 lost", states)
	}

	// The node-level metrics are on the wire, under /v1/ only.
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics: HTTP %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(cts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"distmsm_cluster_registrations_total",
		"distmsm_cluster_lost_nodes_total",
		"distmsm_cluster_nodes{",
		"distmsm_cluster_dispatch_seconds",
	} {
		if !strings.Contains(string(raw), metric) {
			t.Errorf("metrics exposition missing %s", metric)
		}
	}
	if st := coord.Stats(); st.LostNodes != 1 {
		t.Errorf("lost nodes %d, want 1", st.LostNodes)
	}

	// Graceful teardown: the survivor deregisters (draining, not lost),
	// and the local fallback keeps the cluster answering 200.
	workers[1].agent.Stop()
	if code, _ := getJSON(t, cts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after graceful drain: HTTP %d, want 200 via local fallback", code)
	}
	workers[1].ts.Close()
	cts.Close()
	coord.Close()
	for _, w := range workers {
		clusterShutdown(t, w.svc)
	}
	clusterShutdown(t, ref)
	check()
}

// TestAgentReregister drives the agent's recovery loop against a stub
// coordinator that answers every heartbeat with Reregister — the shape
// of a coordinator that restarted and lost its node table. The agent
// must register again on its own, with its sequence numbers reset.
func TestAgentReregister(t *testing.T) {
	check := clusterLeakCheck(t)
	var registrations atomic.Int64
	var rejected atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		registrations.Add(1)
		_ = json.NewEncoder(w).Encode(cluster.RegisterResponse{LeaseMS: 300, HeartbeatMS: 50})
	})
	mux.HandleFunc("/v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// The first two heartbeats are refused like an amnesiac
		// coordinator would; later ones are accepted.
		if rejected.Add(1) <= 2 {
			_ = json.NewEncoder(w).Encode(cluster.HeartbeatResponse{OK: false, Reregister: true})
			return
		}
		_ = json.NewEncoder(w).Encode(cluster.HeartbeatResponse{OK: true})
	})
	mux.HandleFunc("/v1/cluster/deregister", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"ok": true})
	})
	ts := httptest.NewServer(mux)

	agent, err := cluster.StartAgent(cluster.AgentConfig{
		Coordinator: ts.URL,
		NodeID:      "amnesia",
		Addr:        "http://127.0.0.1:1",
		Interval:    30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return registrations.Load() >= 3 }, "the agent to re-register after Reregister answers")
	agent.Stop()
	ts.Close()
	check()
}
