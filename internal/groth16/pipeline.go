// Phase-DAG pipelined prover: the Groth16 proof is a dependency graph,
// not a straight line. The four witness-only MSM phases (msm-A, msm-B1,
// msm-K over G1 and msm-B2 over G2) depend only on the witness; the
// quotient h depends only on the witness; and msm-Z is the single phase
// that consumes h. The executor below runs the quotient — on parallel
// coset NTTs, the host stand-in for the multi-GPU four-step NTT of
// §5.1.1 — concurrently with the witness MSMs, starts msm-Z the moment
// h lands, and joins with errgroup semantics (first error cancels every
// other phase).
//
// Byte-identity with the sequential prover holds because only the
// schedule changes: r and s are drawn from rnd in the same order (the
// quotient consumes no randomness, so drawing them before launching the
// DAG yields the values the sequential prover draws after it), every
// MSM runs over exactly the same (points, scalars) vectors, the
// parallel NTT is bit-identical to the serial one, and MSM shards hold
// whole buckets, so any GPU partition sums to the same point.
package groth16

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
	"distmsm/internal/telemetry"
)

// The pipelined prover's phase lanes (telemetry.TrackPhase indices).
// Each concurrent phase records its span on its own lane, so overlap is
// visible in the exported Chrome trace instead of aliasing on the host
// lane.
const (
	laneQuotient = iota
	laneMSMA
	laneMSMB2
	laneMSMB1
	laneMSMK
	laneMSMZ
)

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

// provePipelined generates a proof by executing the prover's phase DAG:
// quotient ∥ {msm-A, msm-B2, msm-B1, msm-K}, then msm-Z as soon as the
// quotient lands. The proof bytes are identical to ProveContextWith's
// sequential schedule (see the package comment above); only the
// wall-clock schedule differs. A failing phase cancels every other
// phase's context, and the error — annotated with the phase name — is
// returned once all phase goroutines have exited, so the caller never
// leaks a running phase.
func (e *Engine) provePipelined(ctx context.Context, cs *r1cs.System, pk *ProvingKey, witness []field.Element, rnd *rand.Rand, pr Provers, opt PipelineOptions) (*Proof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cs.Satisfied(witness); err != nil {
		return nil, err
	}
	fr := e.Fr
	msmG1 := e.g1msm(pr)
	msmG2 := e.g2msm(pr)
	tr := telemetry.FromContext(ctx)

	// Draw the proof randomness up front, in the sequential prover's
	// order (r then s): the quotient between those draws consumes no
	// randomness, so the values — and therefore the proof bytes — match.
	r, s := fr.Rand(rnd), fr.Rand(rnd)

	wScalars := make([]bigint.Nat, len(witness))
	for i, a := range witness {
		wScalars[i] = frNat(fr, a)
	}
	big2 := make([]*big.Int, len(witness))
	for i := range witness {
		big2[i] = fr.ToBig(witness[i])
	}
	privScalars := privateScalars(fr, cs, witness, wScalars)

	grp, gctx := newPhaseGroup(ctx)

	// timed wraps one phase body with its span (own start time, own
	// lane) and the OnPhase callback.
	timed := func(lane int, name string, fn func() error) func() error {
		return func() error {
			start := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("groth16: phase %s: %w", name, err)
			}
			phaseSpan(tr, name, telemetry.TrackPhase(lane), start)
			if opt.OnPhase != nil {
				opt.OnPhase(name, time.Since(start))
			}
			return nil
		}
	}

	var (
		h      []field.Element
		hReady = make(chan struct{})
		proofA curve.PointAffine
		proofB pairing.G2Affine
		accB1  *curve.PointXYZZ
		sumK   *curve.PointXYZZ
		sumH   *curve.PointXYZZ
	)

	grp.Go(timed(laneQuotient, "quotient", func() error {
		var err error
		h, err = e.quotient(gctx, cs, pk.Domain, witness, opt.NTTWorkers)
		if err != nil {
			return err
		}
		close(hReady)
		return nil
	}))

	// A = α + Σ a_i·u_i(τ) + r·δ  (G1)
	grp.Go(timed(laneMSMA, "msm-A", func() error {
		sumA, err := msmG1(gctx, PhaseA, pk.A, wScalars)
		if err != nil {
			return err
		}
		adder := e.P.Curve.NewAdder()
		accA := e.P.Curve.NewXYZZ()
		e.P.Curve.SetAffine(accA, &pk.Alpha)
		adder.Add(accA, sumA)
		rDelta := adder.ScalarMul(&pk.Delta, frNat(fr, r))
		adder.Add(accA, rDelta)
		proofA = e.P.Curve.ToAffine(accA)
		return nil
	}))

	// B = β + Σ a_i·v_i(τ) + s·δ  (G2)
	grp.Go(timed(laneMSMB2, "msm-B2", func() error {
		sumB2, err := msmG2(gctx, pk.B2, big2)
		if err != nil {
			return err
		}
		g2 := e.P.G2
		withBeta := g2.Add(&sumB2, &pk.Beta2)
		sDelta2 := g2.ScalarMulFr(&pk.Delta2, fr, s)
		proofB = g2.Add(&withBeta, &sDelta2)
		return nil
	}))

	// B's G1 mirror: β + Σ a_i·v_i(τ) + s·δ over G1.
	grp.Go(timed(laneMSMB1, "msm-B1", func() error {
		sumB1, err := msmG1(gctx, PhaseB1, pk.B1, wScalars)
		if err != nil {
			return err
		}
		adder := e.P.Curve.NewAdder()
		acc := e.P.Curve.NewXYZZ()
		e.P.Curve.SetAffine(acc, &pk.Beta)
		adder.Add(acc, sumB1)
		sDelta1 := adder.ScalarMul(&pk.Delta, frNat(fr, s))
		adder.Add(acc, sDelta1)
		accB1 = acc
		return nil
	}))

	grp.Go(timed(laneMSMK, "msm-K", func() error {
		var err error
		sumK, err = msmG1(gctx, PhaseK, pk.K, privScalars)
		return err
	}))

	// msm-Z is the only phase downstream of the quotient: block until h
	// lands (or the group dies), then run. The span starts at the MSM
	// launch, not at the wait, so the trace shows when Z actually ran.
	grp.Go(func() error {
		select {
		case <-hReady:
		case <-gctx.Done():
			return gctx.Err()
		}
		return timed(laneMSMZ, "msm-Z", func() error {
			hScalars := quotientScalars(fr, pk, h)
			var err error
			sumH, err = msmG1(gctx, PhaseZ, pk.Z, hScalars)
			return err
		})()
	})

	if err := grp.Wait(); err != nil {
		return nil, err
	}

	// C = Σ_priv a_i·K_i + Σ_j h_j·Z_j + s·A + r·B1 − r·s·δ — the same
	// assembly, in the same operation order, as the sequential prover.
	adder := e.P.Curve.NewAdder()
	accC := sumK
	adder.Add(accC, sumH)
	aAff := proofA
	sA := adder.ScalarMul(&aAff, frNat(fr, s))
	adder.Add(accC, sA)
	b1Aff := e.P.Curve.ToAffine(accB1)
	rB1 := adder.ScalarMul(&b1Aff, frNat(fr, r))
	adder.Add(accC, rB1)
	rs := fr.NewElement()
	fr.Mul(rs, r, s)
	rsDelta := adder.ScalarMul(&pk.Delta, frNat(fr, rs))
	e.P.Curve.Neg(rsDelta)
	adder.Add(accC, rsDelta)

	return &Proof{A: proofA, B: proofB, C: e.P.Curve.ToAffine(accC)}, nil
}
