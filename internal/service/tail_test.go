package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distmsm/internal/telemetry"
)

// This file pins the PR's tail-latency hardening: per-circuit
// admission quotas, honest Retry-After pricing, EDF starvation
// protection, the EDF/coalescing interaction, and doomed-job shedding
// at dequeue and at prover phase boundaries.

// TestCircuitQuotaAdmission: with CircuitQuota 0.5 on a
// 2-worker/4-deep service, one circuit may hold at most
// ceil(0.5*6) = 3 outstanding jobs; the fourth bounces with a
// Quota-flagged QueueFullError while another circuit still admits.
func TestCircuitQuotaAdmission(t *testing.T) {
	check := leakCheck(t)
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	svc := newTestService(t, 2, 32, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 4
		c.CircuitQuota = 0.5
		c.OnJobStart = func(*Job) {
			started <- struct{}{}
			<-block
		}
	})
	if err := svc.RegisterSynthetic(context.Background(), "cold", 32); err != nil {
		t.Fatal(err)
	}

	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("hot submission %d rejected: %v", i, err)
		}
		jobs = append(jobs, job)
	}

	_, err := svc.Submit(Request{Circuit: "synthetic", Seed: 99})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota submit: want ErrQueueFull, got %v", err)
	}
	var qe *QueueFullError
	if !errors.As(err, &qe) || !qe.Quota || qe.Circuit != "synthetic" {
		t.Fatalf("over-quota rejection not Quota-flagged: %+v (err %v)", qe, err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("quota rejection carries no retry hint: %+v", qe)
	}
	if got := svc.Stats().QuotaRejected; got != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", got)
	}

	// Capacity is 6 and the hot circuit holds only 3: another circuit
	// must still get in — that is the point of the quota.
	cold, err := svc.Submit(Request{Circuit: "cold", Seed: 1})
	if err != nil {
		t.Fatalf("cold circuit rejected while under global capacity: %v", err)
	}
	jobs = append(jobs, cold)

	close(block)
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d after release: %v", job.ID, err)
		}
	}
	shutdownClean(t, svc)
	check()
}

// TestQuotaLanesBoundInFlight: quota lanes cap a circuit's concurrent
// workers at ceil(quota*Workers) even with idle workers available; the
// spare worker picks up another circuit's job instead.
func TestQuotaLanesBoundInFlight(t *testing.T) {
	check := leakCheck(t)
	block := make(chan struct{})
	started := make(chan *Job, 8)
	svc := newTestService(t, 2, 32, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 4
		c.CircuitQuota = 0.5 // lanes = ceil(0.5*2) = 1
		c.OnJobStart = func(j *Job) {
			started <- j
			<-block
		}
	})
	if err := svc.RegisterSynthetic(context.Background(), "cold", 32); err != nil {
		t.Fatal(err)
	}

	hot1, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := <-started
	if first.ID != hot1.ID {
		t.Fatalf("first started job = %d, want %d", first.ID, hot1.ID)
	}
	// A second hot job must NOT start: its circuit's one lane is taken.
	hot2, err := svc.Submit(Request{Circuit: "synthetic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case j := <-started:
		t.Fatalf("job %d started while its circuit was at its lane quota", j.ID)
	case <-time.After(300 * time.Millisecond):
	}
	// But a cold-circuit job takes the idle worker immediately.
	cold, err := svc.Submit(Request{Circuit: "cold", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case j := <-started:
		if j.ID != cold.ID {
			t.Fatalf("idle worker started job %d, want the cold job %d", j.ID, cold.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cold job never started despite an idle worker")
	}

	close(block)
	for _, job := range []*Job{hot1, hot2, cold} {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	shutdownClean(t, svc)
	check()
}

// TestRetryAfterQuotaVsCapacity pins Retry-After honesty: an
// over-quota circuit must be told to wait longer than a submitter
// bouncing off global capacity, because its own slots are the scarce
// resource (they free at ewma*occupancy/lanes, not at the next global
// completion). With the EWMAs pinned to 0.2s, workers=1, depth=5 and
// quota 0.5 (slots 3, lanes 1):
//
//	quota hint    = 0.2s * 3 outstanding / 1 lane = 0.6s
//	capacity hint = 0.2s / 1 in-flight            = 0.2s
func TestRetryAfterQuotaVsCapacity(t *testing.T) {
	check := leakCheck(t)
	block := make(chan struct{})
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 5
		c.CircuitQuota = 0.5
		c.OnJobStart = func(*Job) { <-block }
	})
	if err := svc.RegisterSynthetic(context.Background(), "cold", 32); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	svc.ewmaJobSec = 0.2
	svc.circuits["synthetic"].ewmaSec = 0.2
	svc.mu.Unlock()

	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("hot submission %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	var quotaErr *QueueFullError
	if _, err := svc.Submit(Request{Circuit: "synthetic", Seed: 99}); !errors.As(err, &quotaErr) || !quotaErr.Quota {
		t.Fatalf("want quota rejection, got %v", err)
	}

	// Fill global capacity (6) with the cold circuit, then overflow it.
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(Request{Circuit: "cold", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("cold submission %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	var capErr *QueueFullError
	if _, err := svc.Submit(Request{Circuit: "cold", Seed: 99}); !errors.As(err, &capErr) || capErr.Quota {
		t.Fatalf("want capacity rejection, got %v", err)
	}

	if quotaErr.RetryAfter <= capErr.RetryAfter {
		t.Fatalf("over-quota hint %v not larger than capacity hint %v",
			quotaErr.RetryAfter, capErr.RetryAfter)
	}
	if want := 600 * time.Millisecond; quotaErr.RetryAfter != want {
		t.Fatalf("quota hint = %v, want %v (ewma*occupancy/lanes)", quotaErr.RetryAfter, want)
	}
	if want := 200 * time.Millisecond; capErr.RetryAfter != want {
		t.Fatalf("capacity hint = %v, want %v (ewma/in-flight)", capErr.RetryAfter, want)
	}

	close(block)
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	shutdownClean(t, svc)
	check()
}

// starvationRun floods one worker with long-deadline heavy jobs behind
// a gate job, trickles in one tight-deadline interactive job, then
// releases the gate and reports whether the interactive job met its
// deadline.
func starvationRun(t *testing.T, policy QueuePolicy) (interactiveErr error, st Stats) {
	t.Helper()
	check := leakCheck(t)
	gate := make(chan struct{})
	gateStarted := make(chan struct{}, 1)
	svc := newTestService(t, 2, 1024, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 20
		c.QueuePolicy = policy
		// A slack gate above the interactive deadline: cache-affinity
		// coalescing must never jump the tight-deadline job here, so
		// the run measures queue ordering alone.
		c.CoalesceSlack = 3 * time.Second * timingScale
		c.OnJobStart = func(j *Job) {
			if j.Seed == 999 {
				gateStarted <- struct{}{}
				<-gate
			}
		}
	})
	if err := svc.RegisterSynthetic(context.Background(), "interactive", 48); err != nil {
		t.Fatal(err)
	}

	// The interactive deadline follows the measured time h of one heavy
	// proof: 4h holds the gate job plus the interactive one (≈ h) well
	// inside it, while the 12-job flood outlasts it three times over, at
	// any prover speed and under the race detector alike. A fixed
	// deadline stops separating the two as the prover gets faster.
	t0 := time.Now()
	warm, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("warm-up job: %v", err)
	}
	deadline := 4 * time.Since(t0)
	t.Logf("policy %d: heavy proof %v, interactive deadline %v", policy, deadline/4, deadline)

	// The gate job pins the worker so the backlog builds determin-
	// istically before any ordering decision happens.
	gateJob, err := svc.Submit(Request{Circuit: "synthetic", Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	<-gateStarted
	var heavies []*Job
	for i := 0; i < 12; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1), Timeout: time.Minute})
		if err != nil {
			t.Fatalf("heavy %d: %v", i, err)
		}
		heavies = append(heavies, job)
	}
	interactive, err := svc.Submit(Request{Circuit: "interactive", Seed: 1, Timeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	_, interactiveErr = interactive.Wait(context.Background())
	if _, err := gateJob.Wait(context.Background()); err != nil {
		t.Fatalf("gate job: %v", err)
	}
	for _, job := range heavies {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("heavy job %d: %v", job.ID, err)
		}
	}
	st = svc.Stats()
	shutdownClean(t, svc)
	check()
	return interactiveErr, st
}

// TestEDFStarvationProtection is the adversarial-mix acceptance
// criterion: a tight-deadline trickle behind a flood of long-deadline
// heavy jobs misses under FIFO and completes under EDF, and the EDF
// run visibly reordered the queue (QueueReorders moved).
func TestEDFStarvationProtection(t *testing.T) {
	if err, st := starvationRun(t, QueueEDF); err != nil {
		t.Fatalf("EDF: interactive job missed its deadline behind the flood: %v (stats %+v)", err, st)
	} else if st.QueueReorders == 0 {
		t.Fatalf("EDF: interactive job completed but QueueReorders = 0 — the EDF path did not reorder")
	}
	if err, _ := starvationRun(t, QueueFIFO); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FIFO: interactive job behind a 12-job flood should miss its deadline, got %v", err)
	}
}

// TestEDFCoalescingByteIdenticalProofs: the same workload proved under
// legacy FIFO/unbounded-coalescing and under EDF with a tight
// coalescing slack (plus quotas and shedding armed) yields
// byte-identical proofs per (circuit, seed) — scheduling policy moves
// jobs, never bits — and neither configuration leaks goroutines.
func TestEDFCoalescingByteIdenticalProofs(t *testing.T) {
	type jobKey struct {
		circuit string
		seed    int64
	}
	run := func(mutate func(*Config)) (map[jobKey]string, Stats) {
		check := leakCheck(t)
		svc := newTestService(t, 2, 48, mutate)
		if err := svc.RegisterSynthetic(context.Background(), "other", 48); err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for i := 0; i < 6; i++ {
			circuit := "synthetic"
			if i%2 == 1 {
				circuit = "other"
			}
			timeout := time.Minute
			if i%3 == 0 {
				timeout = 30 * time.Second // mixed deadlines force EDF reorders
			}
			job, err := svc.Submit(Request{Circuit: circuit, Seed: int64(i + 1), Timeout: timeout})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			jobs = append(jobs, job)
		}
		proofs := map[jobKey]string{}
		for _, job := range jobs {
			proof, err := job.Wait(context.Background())
			if err != nil {
				t.Fatalf("job %d: %v", job.ID, err)
			}
			proofs[jobKey{job.Circuit, job.Seed}] = hex.EncodeToString(svc.eng.MarshalProof(proof))
		}
		st := svc.Stats()
		shutdownClean(t, svc)
		check()
		return proofs, st
	}

	legacy, _ := run(func(c *Config) {
		c.Workers = 2
		c.QueuePolicy = QueueFIFO
		c.CoalesceSlack = -1
	})
	hardened, st := run(func(c *Config) {
		c.Workers = 2
		c.QueuePolicy = QueueEDF
		c.CoalesceSlack = time.Millisecond
		c.CircuitQuota = 0.9
		c.ShedDoomed = true
	})
	if len(legacy) != len(hardened) {
		t.Fatalf("proof sets differ in size: %d vs %d", len(legacy), len(hardened))
	}
	for k, p := range legacy {
		if hardened[k] != p {
			t.Errorf("proof for %s/seed %d differs between FIFO and EDF+quota+shed runs", k.circuit, k.seed)
		}
	}
	if st.Completed != 6 || st.ShedExpired+st.ShedDoomed+st.ShedPhase != 0 {
		t.Fatalf("hardened run: stats %+v, want 6 completed and nothing shed", st)
	}
}

// TestShedExpiredAtDequeue: with ShedDoomed on, a job whose deadline
// passed while queued is failed at dequeue without burning a worker —
// a *ShedError unwrapping context.DeadlineExceeded — and the shed is
// visible in Stats and the metrics registry.
func TestShedExpiredAtDequeue(t *testing.T) {
	check := leakCheck(t)
	reg := telemetry.NewRegistry()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.ShedDoomed = true
		c.Metrics = reg
		c.OnJobStart = func(*Job) {
			started <- struct{}{}
			<-block
		}
	})
	gate, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	victim, err := svc.Submit(Request{Circuit: "synthetic", Seed: 2, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // the victim expires in the queue
	close(block)

	_, err = victim.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shed job must unwrap to DeadlineExceeded, got %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedExpired {
		t.Fatalf("want *ShedError{Reason: expired}, got %v", err)
	}
	if _, err := gate.Wait(context.Background()); err != nil {
		t.Fatalf("gate job: %v", err)
	}
	if st := svc.Stats(); st.ShedExpired != 1 || st.Cancelled != 1 {
		t.Fatalf("stats %+v, want ShedExpired 1 (counted in Cancelled)", st)
	}
	if text := reg.WritePrometheus(); !strings.Contains(text, `distmsm_jobs_shed_total{reason="expired"} 1`) {
		t.Fatalf("metrics missing shed counter:\n%s", text)
	}
	shutdownClean(t, svc)
	check()
}

// TestShedDoomedByCircuitEwma: a job whose remaining budget is below
// the circuit's calibrated EWMA prove time is shed at dequeue even
// though its deadline has not yet passed.
func TestShedDoomedByCircuitEwma(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.ShedDoomed = true
	})
	svc.mu.Lock()
	svc.circuits["synthetic"].ewmaSec = 10 // "this circuit takes 10s"
	svc.mu.Unlock()

	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Wait(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedDoomed {
		t.Fatalf("want *ShedError{Reason: doomed}, got %v", err)
	}
	if shed.Estimate < 9*time.Second || shed.Remaining > time.Second {
		t.Fatalf("shed verdict carries wrong evidence: %+v", shed)
	}
	if st := svc.Stats(); st.ShedDoomed != 1 {
		t.Fatalf("stats %+v, want ShedDoomed 1", st)
	}
	shutdownClean(t, svc)
	check()
}

// TestShedAtPhaseBoundary: mid-prove, a job that can no longer afford
// the next MSM phase (per the circuit's per-phase EWMA) is dropped at
// the phase boundary with reason "phase" — never inside the MSM
// scheduler, so surviving jobs' plans stay untouched.
func TestShedAtPhaseBoundary(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.ShedDoomed = true
	})
	svc.mu.Lock()
	c := svc.circuits["synthetic"]
	for i := range c.phaseEwma {
		c.phaseEwma[i] = 100 // every G1 phase "costs 100s"
	}
	svc.mu.Unlock()

	// The dequeue check passes (no end-to-end EWMA yet), so the job
	// reaches the prover and dies at the first G1 phase boundary.
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Wait(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedPhase {
		t.Fatalf("want *ShedError{Reason: phase}, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("phase shed must unwrap to DeadlineExceeded, got %v", err)
	}
	if st := svc.Stats(); st.ShedPhase != 1 {
		t.Fatalf("stats %+v, want ShedPhase 1", st)
	}
	shutdownClean(t, svc)
	check()
}

// TestStatsQuantilesOnWire: /v1/stats carries p50/p99/p999 of
// distmsm_job_seconds once jobs have completed, interpolated by
// telemetry.Histogram.Quantile.
func TestStatsQuantilesOnWire(t *testing.T) {
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.Metrics = telemetry.NewRegistry()
	})
	defer shutdownClean(t, svc)
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct {
		Completed  uint64 `json:"Completed"`
		JobSeconds *struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
			P999  float64 `json:"p999"`
		} `json:"job_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("stats not valid JSON: %v", err)
	}
	if wire.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", wire.Completed)
	}
	js := wire.JobSeconds
	if js == nil || js.Count != 1 || js.P50 <= 0 || js.P99 < js.P50 || js.P999 < js.P99 {
		t.Fatalf("job_seconds quantiles malformed: %+v", js)
	}
}
