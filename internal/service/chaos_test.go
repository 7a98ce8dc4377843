package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
)

// TestChaos is the service's acceptance gauntlet: a fleet of jobs runs
// against a cluster injecting all four fault classes (transient errors,
// stragglers, device losses, corrupted results) with aggressive breaker
// tuning, while a chaos goroutine cancels a random subset of the jobs
// at random points in their pipeline — queued, mid-NTT, mid-MSM,
// mid-phase. Invariants:
//
//   - every job terminates: with a verified proof, or with a context
//     error for the cancelled ones — never a hang, never a fault error
//     (the scheduler and the serial fallback absorb all four classes);
//   - every completed proof is byte-identical to a CPU-only reference
//     proof of the same (circuit, seed) — faults, retries, quarantine
//     and serial degradation never change a single bit;
//   - after shutdown, no goroutine of the service survives.
func TestChaos(t *testing.T) {
	check := leakCheck(t)
	const (
		constraints = 64
		jobCount    = 18
	)
	svc := newTestService(t, 4, constraints, func(c *Config) {
		c.Workers = 3
		c.QueueDepth = jobCount // admit the whole fleet; backpressure is tested elsewhere
		c.Faults = &gpusim.FaultConfig{
			Seed:            5,
			Transient:       0.10,
			Straggler:       0.05,
			StragglerFactor: 4,
			DeviceLost:      0.02,
			Corrupt:         0.05,
		}
		c.Health = gpusim.HealthConfig{FaultThreshold: 2, CooldownRuns: 2, ProbeBuckets: 16}
	})

	// CPU-only reference proofs, one per seed: same witness generator,
	// same proof randomness, no simulated GPUs anywhere near them.
	circ := svc.circuits["synthetic"]
	reference := make(map[int64][]byte)
	for seed := int64(1); seed <= jobCount; seed++ {
		w, err := circ.witness(seed)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := svc.eng.ProveContextWith(context.Background(), circ.cs, circ.pk, w,
			rand.New(rand.NewSource(seed)), groth16.Provers{})
		if err != nil {
			t.Fatal(err)
		}
		reference[seed] = svc.eng.MarshalProof(proof)
	}

	chaosRnd := rand.New(rand.NewSource(99))
	var cancels sync.WaitGroup
	jobs := make([]*Job, 0, jobCount)
	for seed := int64(1); seed <= jobCount; seed++ {
		job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed, Timeout: time.Minute})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		jobs = append(jobs, job)
		// Cancel roughly half the fleet at a random point of its life —
		// some while still queued, some deep inside proving.
		if chaosRnd.Intn(2) == 0 {
			delay := time.Duration(chaosRnd.Intn(300)) * time.Millisecond
			cancels.Add(1)
			go func(j *Job, d time.Duration) {
				defer cancels.Done()
				time.Sleep(d)
				j.Cancel()
			}(job, delay)
		}
	}

	completed, cancelled := 0, 0
	for _, job := range jobs {
		proof, err := job.Wait(context.Background())
		switch {
		case err == nil:
			completed++
			got := svc.eng.MarshalProof(proof)
			if !bytes.Equal(got, reference[job.Seed]) {
				t.Errorf("job %d (seed %d): proof not bit-identical to CPU reference", job.ID, job.Seed)
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cancelled++
		default:
			t.Errorf("job %d (seed %d): unexpected terminal error %v", job.ID, job.Seed, err)
		}
	}
	cancels.Wait()
	t.Logf("chaos: %d completed, %d cancelled", completed, cancelled)
	if completed == 0 {
		t.Error("chaos cancelled every job; nothing exercised the fault path to completion")
	}

	// The injector hit the fleet and the scheduler reported it into the
	// cross-request registry (exact counts depend on cancellation timing;
	// existence does not).
	var shards, faults int
	for _, h := range svc.Health() {
		shards += h.Shards
		faults += h.Faults
	}
	if shards == 0 {
		t.Error("health registry saw no committed shards across the whole fleet")
	}
	st := svc.Stats()
	if int(st.Completed) != completed || int(st.Cancelled) != cancelled || st.Failed != 0 {
		t.Errorf("stats %+v disagree with observed %d completed / %d cancelled", st, completed, cancelled)
	}

	shutdownClean(t, svc)
	check()
}
