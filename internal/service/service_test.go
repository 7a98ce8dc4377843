package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"distmsm/internal/core"
	"distmsm/internal/gpusim"
)

// newTestService builds a running service on an n-GPU cluster with the
// synthetic circuit registered; overrides tweak the config first.
func newTestService(t testing.TB, gpus, constraints int, mutate func(*Config)) *Service {
	t.Helper()
	cl, err := gpusim.NewCluster(gpusim.A100(), gpus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl, WindowSize: 8}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterSynthetic(context.Background(), "synthetic", constraints); err != nil {
		t.Fatal(err)
	}
	return svc
}

// leakCheck snapshots the goroutine count and returns a function that
// fails the test if the count has not settled back within 5 seconds —
// the repo's goleak-style drain check.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if g := runtime.NumGoroutine(); g <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func shutdownClean(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestJobIDsStartAtOne pins the allocation contract oldestID's old
// in-band zero sentinel silently depended on: the first Submit gets
// ID 1, never 0 (0 now signals "empty queue" only through the explicit
// boolean). Also exercises that sentinel directly on an empty and a
// populated queue.
func TestJobIDsStartAtOne(t *testing.T) {
	svc := newTestService(t, 1, 32, nil)
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != 1 {
		t.Fatalf("first job ID = %d, want 1", job.ID)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	shutdownClean(t, svc)

	var q jobQueue
	if id, ok := q.oldestID(); ok || id != 0 {
		t.Fatalf("empty queue oldestID = (%d, %v), want (0, false)", id, ok)
	}
	q.items = []*Job{{ID: 9}, {ID: 2}, {ID: 5}}
	if id, ok := q.oldestID(); !ok || id != 2 {
		t.Fatalf("oldestID = (%d, %v), want (2, true)", id, ok)
	}
}

// TestServiceProveAndVerify: the happy path — jobs complete, the proofs
// verify against the circuit's key, and distinct seeds prove distinct
// statements.
func TestServiceProveAndVerify(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, nil)
	vk, err := svc.VerifyingKey("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	_ = vk
	var jobs []*Job
	for seed := int64(1); seed <= 3; seed++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		proof, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
		if proof == nil {
			t.Fatalf("job %d: nil proof without error", job.ID)
		}
	}
	st := svc.Stats()
	if st.Completed != 3 || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("stats %+v, want 3 completed", st)
	}
	shutdownClean(t, svc)
	check()
}

func TestSubmitUnknownCircuit(t *testing.T) {
	svc := newTestService(t, 1, 32, nil)
	defer shutdownClean(t, svc)
	if _, err := svc.Submit(Request{Circuit: "nope"}); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("want ErrUnknownCircuit, got %v", err)
	}
}

// TestBackpressure is the admission-control acceptance criterion: with
// every worker blocked, in-flight stays at the worker count, the queue
// fills to its depth, and the next submission is rejected immediately
// with ErrQueueFull.
func TestBackpressure(t *testing.T) {
	check := leakCheck(t)
	const workers, depth = 2, 3
	block := make(chan struct{})
	started := make(chan struct{}, workers+depth)
	svc := newTestService(t, 2, 32, func(c *Config) {
		c.Workers = workers
		c.QueueDepth = depth
		c.OnJobStart = func(*Job) {
			started <- struct{}{}
			<-block
		}
	})

	var jobs []*Job
	// workers jobs go in flight, depth jobs wait.
	for i := 0; i < workers+depth; i++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	for i := 0; i < workers; i++ {
		<-started // both workers are now parked inside OnJobStart
	}

	st := svc.Stats()
	if st.InFlight != workers {
		t.Fatalf("in-flight = %d, want %d (the worker count)", st.InFlight, workers)
	}
	if st.Queued != depth {
		t.Fatalf("queued = %d, want %d", st.Queued, depth)
	}

	// The queue is full: the next submission must fail *immediately*.
	t0 := time.Now()
	_, err := svc.Submit(Request{Circuit: "synthetic", Seed: 99})
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("over-capacity Submit blocked for %v", took)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	var qe *QueueFullError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("rejection carries no retry-after hint: %v", err)
	}

	close(block) // release the pool; everything drains
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d after release: %v", job.ID, err)
		}
	}
	shutdownClean(t, svc)
	check()
}

// TestMemoryBudgetAdmission: a budget below two jobs' estimates admits
// one job and rejects the second with the Memory flag set.
func TestMemoryBudgetAdmission(t *testing.T) {
	block := make(chan struct{})
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
		c.OnJobStart = func(*Job) { <-block }
	})
	// Cleanups run LIFO: release the parked worker, then drain.
	t.Cleanup(func() { shutdownClean(t, svc) })
	t.Cleanup(func() { close(block) })
	est := svc.circuits["synthetic"].memEst
	svc.cfg.MemoryBudget = est + est/2

	if _, err := svc.Submit(Request{Circuit: "synthetic", Seed: 1}); err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	_, err := svc.Submit(Request{Circuit: "synthetic", Seed: 2})
	var qe *QueueFullError
	if !errors.As(err, &qe) || !qe.Memory {
		t.Fatalf("want memory-bound QueueFullError, got %v", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("memory rejection must unwrap to ErrQueueFull, got %v", err)
	}
}

// TestDeadlineExceededFromInsideProve is the end-to-end deadline
// acceptance criterion: a job accepted with an already-elapsed deadline
// reaches a worker and fails with context.DeadlineExceeded surfacing
// from groth16.ProveContextWith's own cancellation points — the service
// layer does not pre-filter it.
func TestDeadlineExceededFromInsideProve(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, nil)
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 5, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = job.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if st := svc.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats %+v, want 1 cancelled", st)
	}
	shutdownClean(t, svc)
	check()
}

// TestCancelMidProve: cancelling a job while its pipeline runs unwinds
// promptly with context.Canceled and leaks nothing.
func TestCancelMidProve(t *testing.T) {
	check := leakCheck(t)
	proving := make(chan struct{}, 1)
	svc := newTestService(t, 2, 256, func(c *Config) {
		c.OnJobStart = func(*Job) { proving <- struct{}{} }
	})
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-proving
	time.Sleep(2 * time.Millisecond) // land the cancel inside the pipeline
	job.Cancel()
	_, err = job.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	shutdownClean(t, svc)
	check()
}

// TestShutdownDrains: Shutdown with headroom completes queued work and
// reports a clean drain; later submissions fail with ErrShuttingDown.
func TestShutdownDrains(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, nil)
	var jobs []*Job
	for seed := int64(1); seed <= 2; seed++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	for _, job := range jobs {
		if _, err := job.Result(); err != nil {
			t.Fatalf("job %d not drained: %v", job.ID, err)
		}
	}
	if _, err := svc.Submit(Request{Circuit: "synthetic"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
	check()
}

// TestShutdownForcedCancel: an expired shutdown deadline cancels the
// in-flight jobs instead of waiting for them, and the pool still joins
// without leaks.
func TestShutdownForcedCancel(t *testing.T) {
	check := leakCheck(t)
	proving := make(chan struct{}, 1)
	svc := newTestService(t, 2, 512, func(c *Config) {
		c.OnJobStart = func(*Job) { proving <- struct{}{} }
	})
	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	<-proving
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: want DeadlineExceeded, got %v", err)
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight job after forced shutdown: want Canceled, got %v", err)
	}
	check()
}

// TestWorkerPoolTeardownUnderAllGPUsLost: every job's MSMs lose every
// GPU with serial fallback disabled, so every proof fails with
// core.ErrAllGPUsLost — the pool must surface the failures and still
// tear down leak-free.
func TestWorkerPoolTeardownUnderAllGPUsLost(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, func(c *Config) {
		c.Workers = 2
		c.Faults = &gpusim.FaultConfig{Seed: 11, DeviceLost: 1, DisableFallback: true}
	})
	var jobs []*Job
	for seed := int64(1); seed <= 4; seed++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); !errors.Is(err, core.ErrAllGPUsLost) {
			t.Fatalf("job %d: want ErrAllGPUsLost, got %v", job.ID, err)
		}
	}
	if st := svc.Stats(); st.Failed != 4 {
		t.Fatalf("stats %+v, want 4 failed", st)
	}
	// The repeated losses must also have tripped the cross-request
	// breakers: both GPUs quarantined after the default threshold.
	quarantined := 0
	for _, h := range svc.Health() {
		if h.State == gpusim.BreakerOpen {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("repeated device losses tripped no breaker")
	}
	shutdownClean(t, svc)
	check()
}

// TestConfigValidation: bad retry policies and fault configs fail New.
func TestConfigValidation(t *testing.T) {
	cl, err := gpusim.NewCluster(gpusim.A100(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil cluster: want ErrBadRequest, got %v", err)
	}
	_, err = New(Config{Cluster: cl, Retry: core.RetryPolicy{BaseBackoff: time.Second, MaxBackoff: time.Millisecond}})
	if !errors.Is(err, gpusim.ErrBadFaultConfig) {
		t.Fatalf("bad retry policy: want ErrBadFaultConfig, got %v", err)
	}
	_, err = New(Config{Cluster: cl, Faults: &gpusim.FaultConfig{Transient: 2}})
	if !errors.Is(err, gpusim.ErrBadFaultConfig) {
		t.Fatalf("bad fault config: want ErrBadFaultConfig, got %v", err)
	}
}
