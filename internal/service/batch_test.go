package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"distmsm/internal/groth16"
)

// TestSubmitBatchCoalescesAndHitsCache: a batch of same-circuit jobs is
// admitted atomically, every job proves from the circuit's cached
// fixed-base tables, and the single worker pulls the batch back to back
// (affinity pops counted in BatchesCoalesced).
func TestSubmitBatchCoalescesAndHitsCache(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 16
	})
	const n = 6
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Circuit: "synthetic", Seed: int64(i + 1)}
	}
	jobs, err := svc.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != n {
		t.Fatalf("got %d jobs, want %d", len(jobs), n)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	st := svc.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d, want %d", st.Completed, n)
	}
	if st.BaseCacheHits != n || st.BaseCacheMisses != 0 {
		t.Fatalf("cache hits=%d misses=%d, want %d/0", st.BaseCacheHits, st.BaseCacheMisses, n)
	}
	if st.BaseCacheBytes <= 0 {
		t.Fatalf("BaseCacheBytes = %d, want > 0", st.BaseCacheBytes)
	}
	if st.BatchesCoalesced == 0 {
		t.Fatal("no affinity pops recorded for a same-circuit batch")
	}
	shutdownClean(t, svc)
	check()
}

// TestSubmitBatchAllOrNothing: a batch that does not fit the admission
// capacity is rejected whole — no partial enqueue to unwind.
func TestSubmitBatchAllOrNothing(t *testing.T) {
	block := make(chan struct{})
	svc := newTestService(t, 1, 32, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
		c.OnJobStart = func(*Job) { <-block }
	})
	t.Cleanup(func() { shutdownClean(t, svc) })
	t.Cleanup(func() { close(block) })

	reqs := make([]Request, 4) // capacity is 1+2 = 3
	for i := range reqs {
		reqs[i] = Request{Circuit: "synthetic", Seed: int64(i)}
	}
	_, err := svc.SubmitBatch(reqs)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	st := svc.Stats()
	if st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("rejected batch left jobs behind: %+v", st)
	}
	if st.Rejected != 4 {
		t.Fatalf("Rejected = %d, want 4 (whole batch)", st.Rejected)
	}
	if _, err := svc.SubmitBatch(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: want ErrBadRequest, got %v", err)
	}
	// An unknown circuit anywhere in the batch rejects the whole batch.
	_, err = svc.SubmitBatch([]Request{
		{Circuit: "synthetic", Seed: 1}, {Circuit: "nope", Seed: 2},
	})
	if !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("want ErrUnknownCircuit, got %v", err)
	}
}

// TestBaseCacheEvictionUnderPressure: when job admission hits the
// memory budget, cold cached tables are dropped to make room, the
// eviction is counted, and subsequent jobs fall back to the raw key
// columns (misses) while still proving correctly.
func TestBaseCacheEvictionUnderPressure(t *testing.T) {
	svc := newTestService(t, 1, 32, nil)
	defer shutdownClean(t, svc)
	svc.mu.Lock()
	c := svc.circuits["synthetic"]
	if c.bases == nil {
		svc.mu.Unlock()
		t.Fatal("circuit registered without cached bases")
	}
	// Leave room for exactly one job after the tables are evicted.
	svc.cfg.MemoryBudget = c.memEst
	svc.mu.Unlock()

	job, err := svc.Submit(Request{Circuit: "synthetic", Seed: 3})
	if err != nil {
		t.Fatalf("submit after eviction opportunity: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.BaseCacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.BaseCacheEvictions)
	}
	if st.BaseCacheMisses != 1 || st.BaseCacheHits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/1 after eviction", st.BaseCacheHits, st.BaseCacheMisses)
	}
	if st.BaseCacheBytes != 0 {
		t.Fatalf("BaseCacheBytes = %d after eviction, want 0", st.BaseCacheBytes)
	}
}

// TestBatchProofBytesMatchCPUReference: proofs produced through the
// cached fixed-base/GLV multi-GPU path — and through the same service
// with the base cache disabled — marshal byte-identically to the plain
// CPU-Pippenger prover over the same witness and randomness.
func TestBatchProofBytesMatchCPUReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"cached", nil},
		{"cache disabled", func(c *Config) { c.DisableBaseCache = true }},
	} {
		svc := newTestService(t, 2, 64, tc.mutate)
		defer shutdownClean(t, svc)
		ctx := context.Background()
		for seed := int64(1); seed <= 3; seed++ {
			job, err := svc.Submit(Request{Circuit: "synthetic", Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			proof, err := job.Wait(ctx)
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
			ref, err := svc.eng.ProveContextWith(ctx, c.cs, c.pk, w, rand.New(rand.NewSource(seed)), groth16.Provers{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(svc.eng.MarshalProof(proof), svc.eng.MarshalProof(ref)) {
				t.Fatalf("%s, seed %d: service proof bytes differ from CPU reference", tc.name, seed)
			}
		}
	}
}

// TestCacheWarmProveDoesNotRebuildTables pins the cache-warm prove path
// by allocation count: proving against warm tables must allocate less
// than one rebuild of those tables — the regression this catches is a
// prove path that quietly re-precomputes per job.
func TestCacheWarmProveDoesNotRebuildTables(t *testing.T) {
	svc := newTestService(t, 1, 48, nil)
	defer shutdownClean(t, svc)
	svc.mu.Lock()
	c := svc.circuits["synthetic"]
	bases := c.bases
	svc.mu.Unlock()
	if bases == nil {
		t.Fatal("no cached bases")
	}
	ctx := context.Background()
	warm := testing.AllocsPerRun(3, func() {
		if _, err := svc.prove(ctx, c, bases, 7); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(1, func() {
		b, err := svc.buildBases(ctx, c.pk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.prove(ctx, c, b, 7); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cold {
		t.Fatalf("cache-warm prove allocates %.0f ≥ build+prove %.0f — is the prove path rebuilding tables?",
			warm, cold)
	}
}
