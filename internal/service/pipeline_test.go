package service

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"distmsm/internal/telemetry"
)

// TestPhaseDevicePools pins the sub-pool partition the pipelined prover
// hands its concurrent G1 phases: below four GPUs every phase shares
// the whole cluster (nil pools); at four and above the pools are
// non-empty, disjoint, and cover every device exactly once.
func TestPhaseDevicePools(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for i, p := range phaseDevicePools(n) {
			if p != nil {
				t.Errorf("n=%d: phase %d got pool %v, want nil (whole cluster)", n, i, p)
			}
		}
	}
	for _, n := range []int{4, 5, 8, 13} {
		seen := map[int]bool{}
		total := 0
		for i, p := range phaseDevicePools(n) {
			if len(p) == 0 {
				t.Fatalf("n=%d: phase %d got an empty pool", n, i)
			}
			for _, g := range p {
				if g < 0 || g >= n {
					t.Fatalf("n=%d: phase %d pool holds out-of-range device %d", n, i, g)
				}
				if seen[g] {
					t.Fatalf("n=%d: device %d appears in two phase pools", n, g)
				}
				seen[g] = true
			}
			total += len(p)
		}
		if total != n {
			t.Fatalf("n=%d: pools cover %d devices, want all %d", n, total, n)
		}
	}
}

// TestServicePipelinedProveParity: the ProvePipelined knob changes the
// schedule, not the proof — a pipelined service and a sequential service
// produce byte-identical proofs for the same job seed — and the
// per-phase latency histograms are exposed on /metrics.
func TestServicePipelinedProveParity(t *testing.T) {
	defer leakCheck(t)()
	reg := telemetry.NewRegistry()
	pip := newTestService(t, 8, 64, func(cfg *Config) {
		cfg.ProvePipelined = true
		cfg.Metrics = reg
	})
	defer shutdownClean(t, pip)
	seq := newTestService(t, 8, 64, nil)
	defer shutdownClean(t, seq)

	var proofs [2][]byte
	for i, svc := range []*Service{pip, seq} {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		proof, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		proofs[i] = svc.Engine().MarshalProof(proof)
	}
	if !bytes.Equal(proofs[0], proofs[1]) {
		t.Fatal("pipelined service proof differs from the sequential service's bytes")
	}

	srv := httptest.NewServer(pip.Handler())
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
