package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"distmsm/internal/gpusim"
)

// faultMatrix is the acceptance grid of the fault-tolerance PR: every
// fault class, seeds 1..10, 1–16 GPUs, two curves. For each cell the
// concurrent engine under injection must return a point bit-identical
// to the fault-free run (and equal to the naive reference), with the
// injected faults and recovery actions visible in Stats.Faults.
func TestFaultToleranceMatrix(t *testing.T) {
	classes := []struct {
		name string
		cfg  gpusim.FaultConfig
		// check inspects the aggregated FaultStats of the class's whole
		// (seed × gpus × curve) grid.
		check func(t *testing.T, agg FaultStats)
	}{
		{
			name: "transient",
			cfg:  gpusim.FaultConfig{Transient: 0.3},
			check: func(t *testing.T, agg FaultStats) {
				if agg.TransientErrors == 0 {
					t.Error("no transient errors recorded across the grid")
				}
				if agg.Retries == 0 {
					t.Error("transient errors triggered no retries")
				}
			},
		},
		{
			name: "straggler",
			cfg:  gpusim.FaultConfig{Straggler: 0.3, StragglerFactor: 16},
			check: func(t *testing.T, agg FaultStats) {
				if agg.Stragglers == 0 {
					t.Error("no stragglers recorded across the grid")
				}
				if agg.SpeculativeLaunches == 0 {
					t.Error("stalled shards were never speculatively re-executed")
				}
			},
		},
		{
			name: "device-lost",
			cfg:  gpusim.FaultConfig{DeviceLost: 0.12},
			check: func(t *testing.T, agg FaultStats) {
				if agg.DevicesLost == 0 {
					t.Error("no device losses recorded across the grid")
				}
				if agg.Reassignments == 0 {
					t.Error("lost devices caused no shard reassignments")
				}
			},
		},
		{
			name: "corrupt",
			cfg:  gpusim.FaultConfig{Corrupt: 0.25},
			check: func(t *testing.T, agg FaultStats) {
				if agg.Corruptions == 0 {
					t.Error("no corruptions recorded across the grid")
				}
				if agg.VerificationRuns == 0 {
					t.Error("corruption configured but verification never ran")
				}
				if agg.VerificationFailures == 0 {
					t.Error("corrupted shards were never rejected by verification")
				}
				if agg.VerificationFailures > agg.VerificationRuns {
					t.Errorf("more verification failures (%d) than runs (%d)",
						agg.VerificationFailures, agg.VerificationRuns)
				}
			},
		},
	}
	ctx := context.Background()
	for _, cl := range classes {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			var agg FaultStats
			for _, curveName := range []string{"BN254", "BLS12-381"} {
				c := mustCurve(t, curveName)
				const n = 40
				points := c.SamplePoints(n, 31)
				scalars := c.SampleScalars(n, 32)
				want := c.MSMReference(points, scalars)
				for _, gpus := range []int{1, 4, 16} {
					sys := cluster(t, gpus)
					clean, err := RunContext(ctx, c, sys, points, scalars,
						Options{WindowSize: 8, Engine: EngineConcurrent})
					if err != nil {
						t.Fatalf("%s gpus=%d fault-free: %v", curveName, gpus, err)
					}
					if clean.Stats.Faults.Any() {
						t.Fatalf("%s gpus=%d: fault-free run reported faults: %+v",
							curveName, gpus, clean.Stats.Faults)
					}
					if !c.EqualXYZZ(clean.Point, want) {
						t.Fatalf("%s gpus=%d: fault-free run wrong vs reference", curveName, gpus)
					}
					for seed := int64(1); seed <= 10; seed++ {
						cfg := cl.cfg
						cfg.Seed = seed
						res, err := RunContext(ctx, c, sys, points, scalars,
							Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg})
						if err != nil {
							t.Fatalf("%s gpus=%d seed=%d: %v", curveName, gpus, seed, err)
						}
						if !reflect.DeepEqual(clean.Point, res.Point) {
							t.Fatalf("%s gpus=%d seed=%d: faulted run not bit-identical to fault-free run",
								curveName, gpus, seed)
						}
						if !c.EqualXYZZ(res.Point, want) {
							t.Fatalf("%s gpus=%d seed=%d: faulted run wrong vs MSMReference",
								curveName, gpus, seed)
						}
						f := res.Stats.Faults
						agg.DevicesLost += f.DevicesLost
						agg.TransientErrors += f.TransientErrors
						agg.Stragglers += f.Stragglers
						agg.Corruptions += f.Corruptions
						agg.Retries += f.Retries
						agg.Reassignments += f.Reassignments
						agg.SpeculativeLaunches += f.SpeculativeLaunches
						agg.SpeculativeWins += f.SpeculativeWins
						agg.VerificationRuns += f.VerificationRuns
						agg.VerificationFailures += f.VerificationFailures
					}
				}
			}
			cl.check(t, agg)
		})
	}
}

// TestFaultDeterminism: the same seed reproduces the same fault history,
// stat for stat, across repeated runs (decisions are pure functions of
// the shard identity, not of goroutine interleaving).
func TestFaultDeterminism(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 4)
	const n = 48
	points := c.SamplePoints(n, 33)
	scalars := c.SampleScalars(n, 34)
	cfg := gpusim.FaultConfig{Seed: 3, Transient: 0.2, Corrupt: 0.1, DeviceLost: 0.02}
	opts := Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg}
	first, err := RunContext(context.Background(), c, sys, points, scalars, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := RunContext(context.Background(), c, sys, points, scalars, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Point, again.Point) {
			t.Fatal("same seed produced different points")
		}
		// Injected-fault counts are replayed exactly; recovery-side counts
		// (retries, speculation) may vary with host timing, the injected
		// ones may not for the deterministic classes. Transient and
		// corruption decisions depend only on (shard, attempt) tuples that
		// re-occur identically when no device is lost; compare the classes
		// that fired.
		if (first.Stats.Faults.DevicesLost > 0) != (again.Stats.Faults.DevicesLost > 0) {
			t.Errorf("run %d: device-loss behaviour diverged: %+v vs %+v",
				i, first.Stats.Faults, again.Stats.Faults)
		}
	}
}

// TestAllGPUsLostDegradesToSerial: DeviceLost = 1 kills every device on
// its first shard; the engine must fall back to the serial host engine
// and still return the exact result.
func TestAllGPUsLostDegradesToSerial(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	const n = 32
	points := c.SamplePoints(n, 35)
	scalars := c.SampleScalars(n, 36)
	want := c.MSMReference(points, scalars)
	for _, gpus := range []int{1, 4, 16} {
		sys := cluster(t, gpus)
		cfg := gpusim.FaultConfig{Seed: 5, DeviceLost: 1}
		res, err := RunContext(context.Background(), c, sys, points, scalars,
			Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg})
		if err != nil {
			t.Fatalf("gpus=%d: %v", gpus, err)
		}
		f := res.Stats.Faults
		if !f.DegradedToSerial {
			t.Errorf("gpus=%d: DegradedToSerial not set", gpus)
		}
		if f.DevicesLost != gpus {
			t.Errorf("gpus=%d: DevicesLost = %d, want %d", gpus, f.DevicesLost, gpus)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Errorf("gpus=%d: degraded run wrong vs reference", gpus)
		}
		// The serial fallback attributes no per-GPU work.
		if len(res.Stats.PerGPU) != 0 {
			t.Errorf("gpus=%d: degraded serial run reported per-GPU stats", gpus)
		}
	}
}

// TestAllGPUsLostNoFallback: with DisableFallback the loss of every
// device surfaces the typed sentinel instead of degrading.
func TestAllGPUsLostNoFallback(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 4)
	points := c.SamplePoints(16, 37)
	scalars := c.SampleScalars(16, 38)
	cfg := gpusim.FaultConfig{Seed: 5, DeviceLost: 1, DisableFallback: true}
	_, err := RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg})
	if !errors.Is(err, ErrAllGPUsLost) {
		t.Fatalf("want ErrAllGPUsLost, got %v", err)
	}
}

// TestPersistentCorruptionFailsVerification: Corrupt = 1 corrupts every
// execution of every shard, so the verification keeps rejecting results
// until the execution budget runs out and the typed sentinel surfaces —
// the engine never silently returns a wrong point.
func TestPersistentCorruptionFailsVerification(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 2)
	points := c.SamplePoints(8, 39)
	scalars := c.SampleScalars(8, 40)
	cfg := gpusim.FaultConfig{Seed: 9, Corrupt: 1}
	_, err := RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 10, Engine: EngineConcurrent, Faults: &cfg})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("want ErrVerificationFailed, got %v", err)
	}
}

// TestVerifySamplingOptions: negative sampling disables verification
// even under corruption (the corrupted point then escapes — documented
// sharp edge), and explicit sampling on a clean run just burns checks.
func TestVerifySamplingOptions(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 4)
	const n = 32
	points := c.SamplePoints(n, 43)
	scalars := c.SampleScalars(n, 44)
	want := c.MSMReference(points, scalars)

	// Explicit sampling, no faults: verifications run and all pass.
	res, err := RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent, VerifySampling: 1,
			Faults: &gpusim.FaultConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults.VerificationRuns == 0 {
		t.Error("VerifySampling=1 ran no verifications")
	}
	if res.Stats.Faults.VerificationFailures != 0 {
		t.Error("clean run failed verification")
	}
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("verified clean run wrong vs reference")
	}

	// Negative sampling turns verification off; with corruption injected
	// the run completes without a single check (and the result is wrong —
	// that is exactly the failure mode verification exists to stop).
	res, err = RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent, VerifySampling: -1,
			Faults: &gpusim.FaultConfig{Seed: 2, Corrupt: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults.VerificationRuns != 0 {
		t.Error("negative VerifySampling still ran verifications")
	}
	if res.Stats.Faults.Corruptions > 0 && c.EqualXYZZ(res.Point, want) {
		t.Error("corrupted unverified run returned the correct point — injection inert?")
	}
}

// TestVerifyModesDifferential pins the constant-size shard check end
// to end: it accepts every shard of a clean run, rejects injected
// corruption and recovers to the bit-identical point. Its per-shard
// oracle is the exact recompute of TestShardChallengeMatchesRecompute.
func TestVerifyModesDifferential(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 4)
	const n = 48
	points := c.SamplePoints(n, 51)
	scalars := c.SampleScalars(n, 52)
	want := c.MSMReference(points, scalars)
	for _, corrupt := range []float64{0, 0.3} {
		cfg := gpusim.FaultConfig{Seed: 7, Corrupt: corrupt}
		res, err := RunContext(context.Background(), c, sys, points, scalars,
			Options{WindowSize: 8, Engine: EngineConcurrent, VerifySampling: 1, Faults: &cfg})
		if err != nil {
			t.Fatalf("corrupt=%v: %v", corrupt, err)
		}
		if res.Stats.Faults.VerificationRuns == 0 {
			t.Errorf("corrupt=%v: no verifications ran", corrupt)
		}
		if corrupt == 0 && res.Stats.Faults.VerificationFailures != 0 {
			t.Error("clean run failed verification")
		}
		if corrupt > 0 {
			if res.Stats.Faults.Corruptions == 0 {
				t.Fatal("corruption schedule inert")
			}
			if res.Stats.Faults.VerificationFailures == 0 {
				t.Error("corrupted shards never rejected")
			}
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Errorf("corrupt=%v: wrong point vs reference", corrupt)
		}
	}
}

// TestRetryPolicyReassignment: MaxAttempts = 1 moves a failing shard off
// its owner immediately, so persistent per-GPU transient faults must
// show reassignments.
func TestRetryPolicyReassignment(t *testing.T) {
	c := mustCurve(t, "BN254")
	sys := cluster(t, 4)
	const n = 32
	points := c.SamplePoints(n, 45)
	scalars := c.SampleScalars(n, 46)
	cfg := gpusim.FaultConfig{Seed: 11, Transient: 0.4}
	res, err := RunContext(context.Background(), c, sys, points, scalars,
		Options{WindowSize: 8, Engine: EngineConcurrent, Faults: &cfg,
			Retry: RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Stats.Faults
	if f.TransientErrors == 0 {
		t.Fatal("no transient errors at p=0.4")
	}
	if f.Reassignments == 0 {
		t.Error("MaxAttempts=1 produced no reassignments despite failures")
	}
	want := c.MSMReference(points, scalars)
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("reassigned run wrong vs reference")
	}
}
