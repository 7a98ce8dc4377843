package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
)

// opCounts extracts the engine-independent op-count fields of Stats.
func opCounts(s Stats) [3]uint64 { return [3]uint64{s.PACCOps, s.ReduceOps, s.WindowOps} }

// TestEngineParity: the concurrent engine must produce bit-identical
// points and identical op counts to the serial reference across curves,
// GPU counts and configurations (the acceptance property of this PR).
func TestEngineParity(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"BN254", "BLS12-381"} {
		c := mustCurve(t, name)
		for _, n := range []int{1, 65, 192} {
			points := c.SamplePoints(n, 41)
			scalars := c.SampleScalars(n, 42)
			for _, gpus := range []int{1, 4, 8} {
				cl := cluster(t, gpus)
				for _, opts := range []Options{
					{WindowSize: 8},
					{WindowSize: 8, Unsigned: true},
					{WindowSize: 8, ForceNaiveScatter: true},
					{WindowSize: 13},
				} {
					serialOpts, concOpts := opts, opts
					serialOpts.Engine = EngineSerial
					concOpts.Engine = EngineConcurrent
					ref, err := RunContext(ctx, c, cl, points, scalars, serialOpts)
					if err != nil {
						t.Fatalf("%s n=%d gpus=%d %+v serial: %v", name, n, gpus, opts, err)
					}
					got, err := RunContext(ctx, c, cl, points, scalars, concOpts)
					if err != nil {
						t.Fatalf("%s n=%d gpus=%d %+v concurrent: %v", name, n, gpus, opts, err)
					}
					if !reflect.DeepEqual(ref.Point, got.Point) {
						t.Fatalf("%s n=%d gpus=%d %+v: engines disagree bit-for-bit", name, n, gpus, opts)
					}
					if opCounts(ref.Stats) != opCounts(got.Stats) {
						t.Fatalf("%s n=%d gpus=%d %+v: op counts differ: serial %v concurrent %v",
							name, n, gpus, opts, opCounts(ref.Stats), opCounts(got.Stats))
					}
					if ref.Stats.Scatter != got.Stats.Scatter {
						t.Fatalf("%s n=%d gpus=%d %+v: scatter stats differ: %+v vs %+v",
							name, n, gpus, opts, ref.Stats.Scatter, got.Stats.Scatter)
					}
				}
			}
		}
	}
}

func TestConcurrentEnginePerGPUStats(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 4)
	n := 128
	points := c.SamplePoints(n, 51)
	scalars := c.SampleScalars(n, 52)
	res, err := RunContext(context.Background(), c, cl, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.PerGPU) != 4 {
		t.Fatalf("want 4 per-GPU stats, got %d", len(res.Stats.PerGPU))
	}
	var total uint64
	for _, g := range res.Stats.PerGPU {
		if g.Shards == 0 {
			t.Errorf("gpu %d executed no shards", g.GPU)
		}
		total += g.PACCOps
	}
	if total != res.Stats.PACCOps {
		t.Errorf("per-GPU PACC ops %d != total %d", total, res.Stats.PACCOps)
	}
	if res.Stats.Phase.BucketSum == 0 || res.Stats.Phase.BucketReduce == 0 {
		t.Error("phase times not recorded")
	}
	// The serial engine does not attribute work to GPUs.
	ser, err := RunContext(context.Background(), c, cl, points, scalars,
		Options{WindowSize: 8, Engine: EngineSerial})
	if err != nil {
		t.Fatal(err)
	}
	if ser.Stats.PerGPU != nil {
		t.Error("serial engine must not report per-GPU stats")
	}
}

// TestRunContextCancelled: a pre-cancelled context must fail fast with
// context.Canceled on both engines.
func TestRunContextCancelled(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 4)
	n := 64
	points := c.SamplePoints(n, 61)
	scalars := c.SampleScalars(n, 62)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []Engine{EngineSerial, EngineConcurrent} {
		_, err := RunContext(ctx, c, cl, points, scalars, Options{WindowSize: 8, Engine: e})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v engine: want context.Canceled, got %v", e, err)
		}
	}
}

// TestRunContextCancelMidFlight: cancelling during a long execution
// must return context.Canceled within a shard boundary, well before the
// full MSM would complete, and without deadlocking the workers.
func TestRunContextCancelMidFlight(t *testing.T) {
	c := mustCurve(t, "MNT4753") // 753-bit field: expensive per PACC
	cl := cluster(t, 8)
	n := 1024
	points := c.SamplePoints(n, 71)
	scalars := c.SampleScalars(n, 72)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err  error
		took time.Duration
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		_, err := RunContext(ctx, c, cl, points, scalars,
			Options{WindowSize: 8, Engine: EngineConcurrent})
		done <- outcome{err, time.Since(start)}
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v (after %v)", o.err, o.took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled execution did not return: workers deadlocked")
	}
}

// TestSumBucketsPropagatesErrors: a corrupt bucket reference must
// surface as an error from both schedules of the engine body instead of
// reporting success silently (or panicking).
func TestSumBucketsPropagatesErrors(t *testing.T) {
	c := mustCurve(t, "BN254")
	points := c.SamplePoints(4, 81)
	plan, err := BuildPlan(c, cluster(t, 4), len(points), Options{WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []int32{99, 0} { // 99 exceeds the input; 0 is never scattered
		bad := *plan
		bad.Pre = make([]*ScatterResult, plan.Windows)
		for j := range bad.Pre {
			buckets := make([][]int32, plan.Buckets)
			buckets[1] = []int32{1, 2}
			buckets[plan.Buckets-1] = []int32{ref}
			bad.Pre[j] = &ScatterResult{Buckets: buckets}
		}
		for _, e := range []Engine{EngineSerial, EngineConcurrent} {
			if _, _, err := runScheduled(context.Background(), points, nil, &bad, Options{Engine: e}); err == nil {
				t.Fatalf("ref %d %v: bad bucket reference must error", ref, e)
			}
		}
	}
	// The shared shard kernel reports the same corruption.
	bad := [][]int32{nil, {1, 2}, {99}, {-3}}
	if _, err := sumBucketRange(c, points, bad, 0, len(bad), make([]*curve.PointXYZZ, len(bad)), newBucketScratch(c)); err == nil {
		t.Fatal("sumBucketRange must propagate the error")
	}
}

// TestSerialIgnoresFaults: the serial engine runs the plan with the
// fault injector detached — no device is lost, no result corrupted, no
// shard verified — so it returns the exact point with zero fault stats
// and no per-GPU attribution.
func TestSerialIgnoresFaults(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 48
	points := c.SamplePoints(n, 83)
	scalars := c.SampleScalars(n, 84)
	want := c.MSMReference(points, scalars)
	for _, cfg := range []gpusim.FaultConfig{{Seed: 3, DeviceLost: 1}, {Seed: 3, Corrupt: 1}} {
		cfg := cfg
		res, err := RunContext(context.Background(), c, cluster(t, 4), points, scalars,
			Options{WindowSize: 8, Engine: EngineSerial, Faults: &cfg})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Errorf("%+v: serial result differs from MSMReference", cfg)
		}
		if res.Stats.Faults != (FaultStats{}) {
			t.Errorf("%+v: serial run reported fault stats %+v", cfg, res.Stats.Faults)
		}
		if len(res.Stats.PerGPU) != 0 {
			t.Errorf("%+v: serial run reported per-GPU stats", cfg)
		}
	}
}

// TestRunEmptyInput: zero-length inputs are rejected with the typed
// sentinel on both engines (never answered with a silent identity, and
// never a panic).
func TestRunEmptyInput(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	cl := cluster(t, 4)
	for _, e := range []Engine{EngineSerial, EngineConcurrent} {
		if _, err := RunContext(context.Background(), c, cl, nil, nil, Options{Engine: e}); !errors.Is(err, ErrEmptyInput) {
			t.Fatalf("%v: want ErrEmptyInput, got %v", e, err)
		}
		if _, err := RunContext(context.Background(), c, cl, []curve.PointAffine{}, []bigint.Nat{}, Options{Engine: e}); !errors.Is(err, ErrEmptyInput) {
			t.Fatalf("%v: want ErrEmptyInput for empty non-nil slices, got %v", e, err)
		}
	}
}

// TestCancelMidBucketReduce cancels the context while the host reducer
// goroutine is inside the bucket-reduce of a window — not at a shard
// boundary — and asserts the run returns promptly with context.Canceled
// and leaks no goroutines. MNT4753's 753-bit field with a 12-bit window
// (2049 buckets, ~4100 PADDs per window) keeps the reducer busy for
// many milliseconds per window, so the cancel lands mid-reduce with
// high probability; the in-reduce cancellation check bounds the exit
// latency either way.
func TestCancelMidBucketReduce(t *testing.T) {
	before := runtime.NumGoroutine()
	c := mustCurve(t, "MNT4753")
	cl := cluster(t, 4)
	n := 96
	points := c.SamplePoints(n, 73)
	scalars := c.SampleScalars(n, 74)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, c, cl, points, scalars,
			Options{WindowSize: 12, Engine: EngineConcurrent})
		done <- err
	}()
	// Give the workers time to complete the first windows so the reducer
	// is (very likely) inside a bucket-reduce, then cancel.
	time.Sleep(120 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled execution did not return: reducer stuck inside bucket-reduce")
	}
	// goleak-style check: every goroutine of the run must exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled run: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextSentinels: the typed errors match with errors.Is.
func TestRunContextSentinels(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 2)
	points := c.SamplePoints(2, 91)
	scalars := c.SampleScalars(1, 92)
	if _, err := RunContext(context.Background(), c, cl, points, scalars, Options{}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}
