package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distmsm/internal/telemetry"
)

// TestEWMAFeedsFromDeadlineMisses pins the retry-after calibration fix:
// the completion-time EWMA must learn from every terminal outcome that
// consumed a worker, not only successes. A deadline-only workload used
// to leave the EWMA at zero, so QueueFullError.RetryAfter fell back to
// the 1s default hint forever instead of converging to the observed
// job time.
func TestEWMAFeedsFromDeadlineMisses(t *testing.T) {
	defer leakCheck(t)()
	const hold = 150 * time.Millisecond
	svc := newTestService(t, 2, 64, func(cfg *Config) {
		cfg.Workers = 1
		cfg.OnJobStart = func(*Job) { time.Sleep(hold) }
	})
	defer shutdownClean(t, svc)

	// Three jobs whose deadline expires while the worker holds them:
	// every one terminates with DeadlineExceeded after ~hold.
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1), Timeout: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("job %d err = %v, want DeadlineExceeded", i, err)
		}
	}

	svc.mu.Lock()
	ewma := svc.ewmaJobSec
	svc.mu.Unlock()
	if ewma <= 0 {
		t.Fatal("ewmaJobSec still zero after three deadline misses — deadline outcomes not feeding the EWMA")
	}
	if ewma < hold.Seconds()/2 || ewma > 10*hold.Seconds() {
		t.Fatalf("ewmaJobSec = %.3fs, want around the observed %.3fs job time", ewma, hold.Seconds())
	}

	// Fill the service (1 worker + 2 queue slots) and overflow it: the
	// rejection's Retry-After must be derived from the learned EWMA
	// (sub-second here), not the 1s-per-job fallback (≥ 3s at this
	// occupancy).
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(100 + i), Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	_, err := svc.Submit(Request{Circuit: "synthetic", Seed: 999})
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit err = %v, want QueueFullError", err)
	}
	if full.RetryAfter < 100*time.Millisecond || full.RetryAfter > 2*time.Second {
		t.Errorf("RetryAfter = %v, want a hint near 3 × %.3fs (and far below the 3s zero-EWMA fallback)",
			full.RetryAfter, ewma)
	}
	for _, job := range jobs {
		job.Cancel()
		<-job.Done()
	}
}

// TestMetricsEndpoint drives one successful job and scrapes /metrics:
// the job outcome, latency histogram, per-MSM scheduler counters and
// per-GPU breaker gauges must all be exposed in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	defer leakCheck(t)()
	reg := telemetry.NewRegistry()
	svc := newTestService(t, 2, 64, func(cfg *Config) { cfg.Metrics = reg })
	defer shutdownClean(t, svc)

	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics: status %d, want 404 (served only under /v1/)", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	out := string(body)
	for _, want := range []string{
		"distmsm_jobs_submitted_total 1",
		`distmsm_jobs_total{outcome="completed"} 1`,
		"distmsm_job_seconds_count 1",
		// One Groth16 proof routes exactly four G1 MSMs (A, B1, K, Z)
		// through the scheduler.
		"distmsm_msm_runs_total 4",
		`distmsm_gpu_breaker_state{gpu="0"} 0`,
		`distmsm_gpu_breaker_state{gpu="1"} 0`,
		"distmsm_queue_depth 0",
		"distmsm_inflight_jobs 0",
		"# TYPE distmsm_job_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsAdmissionRejects: admission-control rejections are counted.
func TestMetricsAdmissionRejects(t *testing.T) {
	defer leakCheck(t)()
	reg := telemetry.NewRegistry()
	block := make(chan struct{})
	svc := newTestService(t, 2, 64, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.OnJobStart = func(*Job) { <-block }
	})
	defer shutdownClean(t, svc)

	var jobs []*Job
	for i := 0; i < 2; i++ { // fill worker + queue
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if _, err := svc.Submit(Request{Circuit: "synthetic", Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	out := reg.WritePrometheus()
	if !strings.Contains(out, "distmsm_admission_rejects_total 1") {
		t.Errorf("admission reject not counted:\n%s", out)
	}
	if !strings.Contains(out, "distmsm_jobs_submitted_total 3") {
		t.Errorf("submissions not counted:\n%s", out)
	}
	close(block)
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceDirWritesChromeTrace proves a job's whole pipeline —
// Groth16 phases and MSM shard executions — lands in a loadable Chrome
// trace file when Config.TraceDir is set, complete by the time the
// client observes the terminal state.
func TestTraceDirWritesChromeTrace(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()
	svc := newTestService(t, 2, 64, func(cfg *Config) { cfg.TraceDir = dir })
	defer shutdownClean(t, svc)

	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "job-1.trace.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"quotient", "msm-A", "msm-K", "msm-Z", "shard", "scatter", "bucket-reduce", "window-reduce"} {
		if !seen[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
}
