package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"distmsm/internal/gpusim"
	"distmsm/internal/telemetry"
)

// --- Phase.BucketSumWall vs aggregate busy ---

// TestBucketSumWallInvariant pins the repaired phase accounting: on a
// saturated multi-GPU run the bucket-sum wall span (first shard launch
// to last shard commit) must not exceed the aggregate GPU busy time —
// the quantity the old code reported as "phase time" — and neither may
// exceed the run's total duration. The old conflated reading violated
// the first bound by construction (Σ busy ≈ nGPU × wall).
//
// Saturation needs the four workers actually overlapping, so the test
// pins GOMAXPROCS ≥ 4 for its duration: on a single-proc host the
// workers would time-slice with Σ busy ≈ wall, and scheduling noise
// could push either side of the bound.
func TestBucketSumWallInvariant(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	c := mustCurve(t, "BN254")
	const n = 4096
	points := c.SamplePoints(n, 5)
	scalars := c.SampleScalars(n, 6)
	sys := cluster(t, 4)

	t0 := time.Now()
	res, err := RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent})
	total := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}

	wall := res.Stats.Phase.BucketSumWall
	if wall <= 0 {
		t.Fatal("concurrent run recorded no BucketSumWall")
	}
	var busy time.Duration
	for _, st := range res.Stats.PerGPU {
		busy += st.Busy
	}
	if res.Stats.Phase.BucketSum != busy {
		t.Errorf("Phase.BucketSum = %v, want the aggregate busy Σ PerGPU.Busy = %v", res.Stats.Phase.BucketSum, busy)
	}
	if wall > busy {
		t.Errorf("BucketSumWall %v exceeds aggregate busy %v on a 4-GPU busy-dominated run", wall, busy)
	}
	if wall > total {
		t.Errorf("BucketSumWall %v exceeds the whole run's duration %v", wall, total)
	}
}

// TestBucketSumWallSerial: the serial engine has no busy/wall
// distinction — one window's sum at a time — so both readings agree.
func TestBucketSumWallSerial(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 256
	points := c.SamplePoints(n, 7)
	scalars := c.SampleScalars(n, 8)
	res, err := RunContext(context.Background(), c, cluster(t, 2), points, scalars,
		Options{WindowSize: 8, Engine: EngineSerial})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phase.BucketSumWall != res.Stats.Phase.BucketSum {
		t.Errorf("serial engine: BucketSumWall %v != BucketSum %v",
			res.Stats.Phase.BucketSumWall, res.Stats.Phase.BucketSum)
	}
	if res.Stats.Phase.BucketSumWall <= 0 {
		t.Error("serial engine recorded no bucket-sum time")
	}
}

// --- cancellation during an injected straggler stall ---

// TestCancelledStragglerChargesNoRetries pins the teardown accounting
// fix: cancelling a run while every shard sits in an injected straggler
// stall must not charge FaultStats.Retries (or consecutive-failure
// budget) for executions that were unwound, not failed. The old path
// routed the cancellation through sched.fail, counting one retry per
// stalled shard of a run that was already ending.
func TestCancelledStragglerChargesNoRetries(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 64
	points := c.SamplePoints(n, 9)
	scalars := c.SampleScalars(n, 10)

	cfg := gpusim.FaultConfig{Straggler: 1.0, StragglerFactor: 64, Seed: 1}
	inj, err := gpusim.NewFaultInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster(t, 4).WithFaults(inj)
	opts := Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg}
	plan, err := BuildPlan(c, cl, n, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every execution stalls for at least minStragglerWait (8ms of host
	// time); cancel well inside the first stall so each worker unwinds
	// from sleepCtx, never from a shard failure.
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(3*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	_, faults, err := runScheduled(ctx, points, scalars, plan, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if faults.Stragglers == 0 {
		t.Fatal("no straggler stalls recorded — the cancellation never hit the stall path")
	}
	if faults.Retries != 0 {
		t.Errorf("cancelled run charged %d retries; teardown must not count as failure", faults.Retries)
	}
}

// --- work stealing scans for the true minimum window ---

// TestStealPrefersLowestWindow pins the steal-order fix: queues stop
// being window-ordered once requeueLocked appends a retried shard at
// the tail, so stealLocked must scan every ready entry for the minimum
// window instead of grabbing the first ready one. The reducer consumes
// windows in order; stealing window 5 while window 2 waits stalls it.
func TestStealPrefersLowestWindow(t *testing.T) {
	c := mustCurve(t, "BN254")
	plan, err := BuildPlan(c, cluster(t, 2), 64, Options{WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the queue shape left behind by a retry: GPU 1 holds
	// window 5 ahead of window 2 (the retried shard re-appended at the
	// tail); GPU 0 is idle and comes stealing.
	plan.Assignments = []Assignment{
		{Window: 5, GPU: 1, BucketLo: 0, BucketHi: plan.Buckets},
		{Window: 2, GPU: 1, BucketLo: 0, BucketHi: plan.Buckets},
	}
	s := newScheduler(plan, Options{})

	got := s.stealLocked(0, time.Now())
	if got == nil {
		t.Fatal("stealLocked found nothing to steal")
	}
	if got.a.Window != 2 {
		t.Errorf("stole window %d, want the minimum ready window 2", got.a.Window)
	}
	if s.stats.Steals != 1 {
		t.Errorf("Steals = %d, want 1", s.stats.Steals)
	}
	// Entries still in backoff are invisible to the scan.
	s.queues[1][0].notBefore = time.Now().Add(time.Hour)
	if s.stealLocked(0, time.Now()) != nil {
		t.Error("stole a task still in backoff")
	}
}

// --- a run that cannot requeue parks nobody ---

// TestDrainedWorkerLeavesFaultFreeRun pins the fault-free path's
// quiescence: without an injector or a rejecting verification no shard
// is ever requeued, stolen or speculated, so a worker whose queue is
// drained returns for good instead of parking on the condition variable
// (where every sibling commit, and a polling waker, would wake it for
// nothing). A run that can fail a shard still parks.
func TestDrainedWorkerLeavesFaultFreeRun(t *testing.T) {
	c := mustCurve(t, "BN254")
	plan, err := BuildPlan(c, cluster(t, 2), 64, Options{WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan.Assignments = []Assignment{
		{Window: 0, GPU: 0, BucketLo: 0, BucketHi: plan.Buckets},
		{Window: 1, GPU: 1, BucketLo: 0, BucketHi: plan.Buckets},
	}
	s := newScheduler(plan, Options{})
	if s.timed() {
		t.Fatal("a run without injector or verification reports timed waits")
	}
	ctx := context.Background()
	if task, _, _, err := s.next(ctx, 0); err != nil || task == nil {
		t.Fatalf("first next = (%v, %v), want GPU 0's shard", task, err)
	}
	// GPU 1's shard is still outstanding, yet GPU 0 has nothing left.
	done := make(chan *shardTask, 1)
	go func() {
		task, _, _, _ := s.next(ctx, 0)
		done <- task
	}()
	select {
	case task := <-done:
		if task != nil {
			t.Errorf("drained worker was handed window %d", task.a.Window)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drained worker parked in a run that can never requeue")
	}

	if v := newScheduler(plan, Options{VerifySampling: 1}); !v.timed() {
		t.Error("a run whose verification can reject a shard must keep its waker")
	}
}

// --- tracing ---

// TestTraceShardAllocFree pins the tentpole's zero-cost contract on the
// shard hot path: the single telemetry touchpoint allocates nothing,
// whether tracing is disabled (nil tracer) or enabled (pre-allocated
// ring).
func TestTraceShardAllocFree(t *testing.T) {
	task := &shardTask{a: Assignment{Window: 3, GPU: 1, BucketLo: 0, BucketHi: 128}}
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		traceShard(nil, 1, task, 2, false, start, time.Millisecond)
	}); allocs != 0 {
		t.Errorf("disabled traceShard allocates %.1f objects/op, want 0", allocs)
	}
	tr := telemetry.NewTracer(256)
	if allocs := testing.AllocsPerRun(100, func() {
		traceShard(tr, 1, task, 2, true, start, time.Millisecond)
	}); allocs != 0 {
		t.Errorf("enabled traceShard allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentRunTraceSpans drives a traced multi-GPU run end to end
// and checks every phase of the span model shows up: scatter, shard
// (on a GPU track, labeled), bucket-reduce and window-reduce.
func TestConcurrentRunTraceSpans(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 512
	points := c.SamplePoints(n, 11)
	scalars := c.SampleScalars(n, 12)
	tr := telemetry.NewTracer(0)
	res, err := RunContext(context.Background(), c, cluster(t, 4), points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	gpuTracks := map[telemetry.Track]bool{}
	for _, s := range tr.Spans() {
		seen[s.Name]++
		if s.Name == "shard" {
			if !s.Labeled {
				t.Error("shard span not labeled")
			}
			gpuTracks[s.Track] = true
			if s.Track == telemetry.TrackHost {
				t.Error("shard span recorded on the host track")
			}
		}
	}
	windows := res.Plan.Windows
	for _, name := range []string{"scatter", "shard", "bucket-reduce", "window-reduce"} {
		if seen[name] == 0 {
			t.Errorf("no %q spans recorded", name)
		}
	}
	if seen["scatter"] != windows || seen["bucket-reduce"] != windows {
		t.Errorf("scatter/bucket-reduce spans = %d/%d, want one per window (%d)",
			seen["scatter"], seen["bucket-reduce"], windows)
	}
	if len(gpuTracks) < 2 {
		t.Errorf("shard spans landed on %d GPU tracks, want ≥ 2 on a 4-GPU run", len(gpuTracks))
	}
	if seen["shard"] < len(res.Plan.Assignments) {
		t.Errorf("%d shard spans for %d assignments", seen["shard"], len(res.Plan.Assignments))
	}
}
