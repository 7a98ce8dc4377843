// The prover's phase table and its executor. A Groth16 proof is a
// dependency graph, not a straight line: the four witness-only MSM
// phases (msm-A, msm-B1, msm-K over G1 and msm-B2 over G2) and the
// quotient h depend only on the witness, and msm-Z is the single phase
// that consumes h. ProveContextWith declares that graph once, as a table
// in topological order, and runPhases executes it under one of two
// schedules:
//
//   - sequential (Provers.Pipeline nil): the phases run in table order on
//     the caller's goroutine, with a context check between phases;
//   - phase DAG (Provers.Pipeline set): one goroutine per phase — the
//     quotient, on parallel coset NTTs (the host stand-in for the
//     multi-GPU four-step NTT of §5.1.1), overlaps the witness MSMs, a
//     phase with dependencies starts the moment they land, and the join
//     has errgroup semantics (the first error cancels every other phase).
//
// Both schedules run the same phase bodies over the same vectors, r and
// s are drawn once before either starts, the proof is assembled once
// after the join, and the NTT is one transform body at every width, so
// the proof bytes do not depend on the schedule.
package groth16

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distmsm/internal/telemetry"
)

// phase is one row of the prover's phase table.
type phase struct {
	name string
	// after lists the table indices this phase consumes; they always
	// precede it, so table order is a valid sequential schedule.
	after []int
	run   func(ctx context.Context) error
}

// phaseGroup is a minimal errgroup: Go runs a phase, the first error
// cancels the derived context, and Wait blocks until every phase exits
// and returns the first error.
type phaseGroup struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func newPhaseGroup(ctx context.Context) (*phaseGroup, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &phaseGroup{cancel: cancel}, ctx
}

func (g *phaseGroup) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
			g.cancel()
		}
	}()
}

func (g *phaseGroup) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// runPhases executes the phase table. With opt nil the phases run in
// table order on the caller's goroutine and draw their spans on
// TrackHost (they cannot overlap). Otherwise each phase runs on its own
// goroutine, waits for the phases it lists in after, draws its span on
// telemetry.TrackPhase(index) so concurrent phases never alias a lane,
// and reports to opt.OnPhase. A failing phase's error is returned as
// "groth16: phase <name>: …" under both schedules; under the DAG it
// first cancels every other phase, and runPhases returns only once all
// phase goroutines have exited.
func runPhases(ctx context.Context, phases []phase, opt *PipelineOptions) error {
	tr := telemetry.FromContext(ctx)
	run := func(ctx context.Context, i int, track telemetry.Track) error {
		p := &phases[i]
		start := time.Now()
		if err := p.run(ctx); err != nil {
			return fmt.Errorf("groth16: phase %s: %w", p.name, err)
		}
		// Record is nil-safe: without a tracer a span costs two time reads.
		tr.Record(telemetry.Span{Name: p.name, Cat: "groth16", Track: track,
			Start: start, Dur: time.Since(start)})
		if opt != nil && opt.OnPhase != nil {
			opt.OnPhase(p.name, time.Since(start))
		}
		return nil
	}
	if opt == nil {
		for i := range phases {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, i, telemetry.TrackHost); err != nil {
				return err
			}
		}
		return nil
	}

	grp, gctx := newPhaseGroup(ctx)
	done := make([]chan struct{}, len(phases))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i := range phases {
		grp.Go(func() error {
			// The span starts after the wait, so the trace shows when the
			// phase actually ran.
			for _, j := range phases[i].after {
				select {
				case <-done[j]:
				case <-gctx.Done():
					return gctx.Err()
				}
			}
			if err := run(gctx, i, telemetry.TrackPhase(i)); err != nil {
				return err
			}
			close(done[i])
			return nil
		})
	}
	return grp.Wait()
}
