package service

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"distmsm/internal/groth16"
	"distmsm/internal/telemetry"
)

// TestServiceProveMatchesSequential: the service proves under the phase
// DAG with every G1 phase on the whole simulated cluster, and the proof
// is byte-identical to the sequential schedule's on the CPU backends
// (Provers{}, independent of the service) for the same key, witness and
// seed. Every phase's latency histogram is exposed on /metrics with
// exactly one sample — the per-phase series only the DAG reports.
func TestServiceProveMatchesSequential(t *testing.T) {
	defer leakCheck(t)()
	reg := telemetry.NewRegistry()
	svc := newTestService(t, 8, 64, func(cfg *Config) { cfg.Metrics = reg })
	defer shutdownClean(t, svc)

	const seed = 42
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	svc.mu.Lock()
	c := svc.circuits["synthetic"]
	svc.mu.Unlock()
	w, err := c.witness(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := svc.Engine()
	seq, err := eng.ProveContextWith(context.Background(), c.cs, c.pk, w,
		rand.New(rand.NewSource(seed)), groth16.Provers{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eng.MarshalProof(proof), eng.MarshalProof(seq)) {
		t.Fatal("service proof differs from the sequential schedule's bytes")
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, phase := range provePhases {
		want := `distmsm_prove_phase_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
