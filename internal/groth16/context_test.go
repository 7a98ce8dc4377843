package groth16

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"distmsm/internal/r1cs"
)

// Cancellation coverage for the context-threaded prover pipeline: the
// NTT/QAP/quotient phases observe ctx, not only the MSM shards inside a
// context-aware MSM backend.

// TestProveContextExpiredDeadline: a job already past its deadline must
// return context.DeadlineExceeded from inside the prover itself. No G1
// backend is set (the CPU Pippenger, which has no context at all), so
// the error can only come from groth16's own phase-boundary checks.
func TestProveContextExpiredDeadline(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 60, 5)
	rnd := rand.New(rand.NewSource(5))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := e.ProveContextWith(ctx, cs, pk, w, rnd, Provers{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded from inside Prove, got %v", err)
	}
}

// TestProveContextCancelMidQuotient cancels while the prover is inside
// the quotient's coset NTTs: the witness check passes first (so the
// cancel is observed by the pipeline, not the entry guard), then a
// pre-cancelled context aborts the first NTT between butterfly passes.
func TestProveContextCancelMidQuotient(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 120, 6)
	rnd := rand.New(rand.NewSource(6))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	// Direct quotient check: a dead context must surface from the NTT
	// layer (the quotient has no other early-outs).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.quotient(ctx, cs, pk.Domain, w, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("quotient: want context.Canceled, got %v", err)
	}
	// And through the public entry point with a live-then-dead context:
	// cancel after the Satisfied check has had time to start.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.ProveContextWith(ctx2, cs, pk, w, rnd, Provers{})
		done <- err
	}()
	cancel2()
	select {
	case err := <-done:
		// Either the proof finished before the cancel landed (small
		// circuit) or it was cancelled; both are correct, a hang is not.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("want nil or context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled ProveContextWith did not return")
	}
}

// TestSetupContextCancel: SetupContext observes a dead context inside
// the per-variable key-element loop.
func TestSetupContextCancel(t *testing.T) {
	e := newEngine(t)
	cs, _ := r1cs.BuildSynthetic(e.Fr, 80, 7)
	rnd := rand.New(rand.NewSource(7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.SetupContext(ctx, cs, rnd); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
