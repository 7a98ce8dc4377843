package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"distmsm"
	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
	"distmsm/internal/pairing"
)

// prove_lib: one caller issuing SNARK.ProveContext + SNARK.Verify with
// a System attached and no caches. The inputs rotate over proveCircuits
// circuits, each with its own keys and witness.
const (
	proveConstraints = 64
	proveCircuits    = 4
)

var errProofRejected = errors.New("proof did not verify")

type provable struct {
	cs *distmsm.ConstraintSystem
	w  distmsm.Witness
	pk *distmsm.ProvingKey
	vk *distmsm.VerifyingKey
}

type proveInstance struct {
	seed     int64
	snark    *distmsm.SNARK
	circuits [proveCircuits]provable

	// The traced ops call the engine the facade wraps, with the same MSM
	// routing (window 8, concurrent engine), so that each phase can be
	// timed through groth16.Provers.
	eng *groth16.Engine
	cl  *gpusim.Cluster

	firstProof [proveCircuits][]byte // marshalled, for the re-prove check
	firstOp    [proveCircuits]int
	modeled    []float64 // facade ModeledMSMSeconds delta per untraced op
}

func setupProve(ctx context.Context, o runOpts) (instance, error) {
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		return nil, err
	}
	snark, err := distmsm.NewSNARK(sys)
	if err != nil {
		return nil, err
	}
	in := &proveInstance{seed: o.seed, snark: snark}
	if in.eng, err = groth16.NewEngine(); err != nil {
		return nil, err
	}
	if in.cl, err = gpusim.NewCluster(gpusim.A100(), 8); err != nil {
		return nil, err
	}
	for k := range in.circuits {
		c := &in.circuits[k]
		c.cs, c.w = snark.SyntheticCircuit(proveConstraints, subSeed(o.seed, 10+k))
		c.pk, c.vk, err = snark.SetupContext(ctx, c.cs, rand.New(rand.NewSource(subSeed(o.seed, 20+k))))
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// blinding returns op i's proof randomness; the same i gives the same
// proof bytes.
func (in *proveInstance) blinding(i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(in.seed, 1000+i)))
}

func (in *proveInstance) op(ctx context.Context, i int, rec *recorder, parent int) error {
	k := i % proveCircuits
	c := &in.circuits[k]
	public := c.w[1 : 1+c.cs.NPublic]
	var proof *distmsm.Proof
	var ok bool
	var err error
	if rec == nil {
		before := in.snark.ModeledMSMSeconds
		if proof, err = in.snark.ProveContext(ctx, c.cs, c.pk, c.w, in.blinding(i)); err != nil {
			return err
		}
		in.modeled = append(in.modeled, in.snark.ModeledMSMSeconds-before)
		ok, err = in.snark.Verify(c.vk, proof, public)
	} else {
		id := rec.begin("groth16.prove", parent, i, 0)
		proof, err = in.eng.ProveContextWith(ctx, c.cs, c.pk, c.w, in.blinding(i), in.provers(rec, id, i, nil))
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("groth16.verify", parent, i, 0)
		ok, err = in.eng.Verify(c.vk, proof, public)
		rec.end(id)
	}
	if err != nil {
		return err
	}
	if !ok {
		return errProofRejected
	}
	if in.firstProof[k] == nil {
		in.firstProof[k], in.firstOp[k] = in.eng.MarshalProof(proof), i
	}
	return nil
}

// provers routes the prover's MSMs exactly as SNARK.ProveContext does
// and wraps each in a span named after its phase.
func (in *proveInstance) provers(rec *recorder, parent, op int, pipeline *groth16.PipelineOptions) groth16.Provers {
	return groth16.Provers{
		G1Ctx: func(ctx context.Context, phase groth16.MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
			id := rec.begin("groth16.msm_"+phase.String(), parent, op, 1+int(phase))
			defer rec.end(id)
			res, err := core.RunContext(ctx, in.eng.P.Curve, in.cl, points, scalars,
				core.Options{WindowSize: 8, Engine: core.EngineConcurrent})
			if err != nil {
				return nil, err
			}
			return res.Point, nil
		},
		G2Ctx: func(ctx context.Context, points []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
			id := rec.begin("groth16.msm_B2", parent, op, 5)
			defer rec.end(id)
			return in.eng.P.G2.MSMContext(ctx, points, scalars)
		},
		Pipeline: pipeline,
	}
}

func (in *proveInstance) run(ctx context.Context, d time.Duration, warmups int, rec *recorder) runResult {
	return closedLoop(ctx, d, warmups, rec, in.op)
}

// check re-proves the first proof of each circuit with the same
// blinding and requires identical bytes. Every proof was already
// verified inside its op.
func (in *proveInstance) check(ctx context.Context) (int, error) {
	wrong := 0
	for k, want := range in.firstProof {
		if want == nil {
			continue
		}
		c := &in.circuits[k]
		proof, err := in.snark.ProveContext(ctx, c.cs, c.pk, c.w, in.blinding(in.firstOp[k]))
		if err != nil {
			return wrong, err
		}
		if !bytes.Equal(in.eng.MarshalProof(proof), want) {
			wrong++
		}
	}
	return wrong, nil
}

func (in *proveInstance) close() {}

func (in *proveInstance) layers(ctx context.Context, o runOpts, spans []span, _ runResult, m metrics) error {
	if len(in.modeled) == 0 {
		return fmt.Errorf("no untraced op completed")
	}
	for metricName, spanName := range map[string]string{
		"groth16.prove_s":  "groth16.prove",
		"groth16.verify_s": "groth16.verify",
		"groth16.msm_a_s":  "groth16.msm_A",
		"groth16.msm_b1_s": "groth16.msm_B1",
		"groth16.msm_b2_s": "groth16.msm_B2",
		"groth16.msm_k_s":  "groth16.msm_K",
		"groth16.msm_z_s":  "groth16.msm_Z",
	} {
		m[metricName] = median(durationsByName(spans, spanName))
	}
	m["groth16.self_s"] = median(selfByName(spans, "groth16.prove"))
	m["gpusim.modeled_op_s"] = in.modeled[0]
	m["groth16.proof_bytes"] = float64(in.eng.ProofSize())

	c := &in.circuits[0]
	reps := o.reps(10)
	var err error
	if m["groth16.setup_s"], err = medianSeconds(reps, func() error {
		_, _, err := in.eng.SetupContext(ctx, c.cs, rand.New(rand.NewSource(subSeed(o.seed, 20))))
		return err
	}); err != nil {
		return err
	}

	// The phase-DAG prover against the phase list, alternating, both on
	// the host clock.
	var seq, pip []float64
	for i := 0; i < 2*reps; i++ {
		var pipeline *groth16.PipelineOptions
		if i%2 == 1 {
			pipeline = &groth16.PipelineOptions{}
		}
		t0 := time.Now()
		if _, err := in.eng.ProveContextWith(ctx, c.cs, c.pk, c.w, in.blinding(i), in.provers(nil, 0, 0, pipeline)); err != nil {
			return err
		}
		if dt := time.Since(t0).Seconds(); i%2 == 1 {
			pip = append(pip, dt)
		} else {
			seq = append(seq, dt)
		}
	}
	m["groth16.pipelined_prove_s"] = median(pip)
	m["groth16.pipeline_speedup"] = median(seq) / median(pip)

	// The prove_lib shape of core: a key-column MSM at window 8.
	scalars := make([]bigint.Nat, len(c.w))
	big2 := make([]*big.Int, len(c.w))
	for i, a := range c.w {
		big2[i] = in.eng.Fr.ToBig(a)
		scalars[i] = bigint.FromBig(big2[i], in.eng.Fr.Width())
	}
	if m["core.small_msm_s"], err = medianSeconds(o.reps(30), func() error {
		_, err := core.RunContext(ctx, in.eng.P.Curve, in.cl, c.pk.A, scalars, core.Options{WindowSize: 8, Engine: core.EngineConcurrent})
		return err
	}); err != nil {
		return err
	}

	g2 := in.eng.P.G2
	if m["pairing.g2_msm_s"], err = medianSeconds(reps, func() error {
		_, err := g2.MSMContext(ctx, c.pk.B2, big2)
		return err
	}); err != nil {
		return err
	}
	jac := g2.FromAffine(&g2.Gen)
	g2.Double(&jac)
	m["pairing.g2_to_affine_ns"] = perCallNS(o.reps(2000), func() { _ = g2.ToAffine(&jac) })
	probeTower(o, in.eng.P, m)

	probeBigint(o, in.eng.P.Curve, "4", m)
	probeField(o, in.eng.P.Fp, m)
	probeCurve(o, in.eng.P.Curve, in.eng.P.Curve.SamplePoints(256, uint64(subSeed(o.seed, 30))), m)
	return probeNTT(ctx, o, in.eng.Fr, m)
}
