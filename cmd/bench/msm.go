package main

import (
	"context"
	"fmt"
	"time"

	"distmsm"
)

// msm_varbase: one caller issuing System.MSMContext on BN254 with every
// option at its default. The inputs rotate over msmInputs scalar
// vectors on one point vector, so no op repeats its predecessor's
// input.
const (
	msmLogN   = 14
	msmInputs = 4
)

type msmInstance struct {
	c       *distmsm.CurveParams
	sys     *distmsm.System
	points  []distmsm.PointAffine
	scalars [msmInputs][]distmsm.Scalar

	outputs []msmOutput // every op, for check
	traced  []tracedMSM // traced ops, for layers
}

type tracedMSM struct {
	res *distmsm.Result
	sec float64
}

type msmOutput struct {
	input int
	point *distmsm.PointXYZZ
}

func setupMSM(_ context.Context, o runOpts) (instance, error) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		return nil, err
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		return nil, err
	}
	n := 1 << msmLogN
	in := &msmInstance{c: c, sys: sys, points: c.SamplePoints(n, uint64(subSeed(o.seed, 0)))}
	for k := range in.scalars {
		in.scalars[k] = c.SampleScalars(n, subSeed(o.seed, 1+k))
	}
	return in, nil
}

func (in *msmInstance) op(ctx context.Context, i int, rec *recorder, parent int) error {
	k := i % msmInputs
	t0 := time.Now()
	id := rec.begin("core.MSMContext", parent, i, 0)
	res, err := in.sys.MSMContext(ctx, in.c, in.points, in.scalars[k])
	rec.end(id)
	if err != nil {
		return err
	}
	in.outputs = append(in.outputs, msmOutput{k, res.Point})
	if rec != nil {
		in.traced = append(in.traced, tracedMSM{res, time.Since(t0).Seconds()})
	}
	return nil
}

func (in *msmInstance) run(ctx context.Context, d time.Duration, warmups int, rec *recorder) runResult {
	return closedLoop(ctx, d, warmups, rec, in.op)
}

// check compares every op's output with the plain CPU Pippenger on the
// same input.
func (in *msmInstance) check(context.Context) (int, error) {
	var refs [msmInputs]*distmsm.PointXYZZ
	for k := range refs {
		ref, err := distmsm.CPUMSM(in.c, in.points, in.scalars[k])
		if err != nil {
			return 0, err
		}
		refs[k] = ref
	}
	wrong := 0
	for _, out := range in.outputs {
		if !in.c.EqualXYZZ(out.point, refs[out.input]) {
			wrong++
		}
	}
	return wrong, nil
}

func (in *msmInstance) close() {}

func (in *msmInstance) layers(ctx context.Context, o runOpts, _ []span, _ runResult, m metrics) error {
	if len(in.traced) == 0 {
		return fmt.Errorf("no traced op completed")
	}

	// Phases and counts the ops themselves returned.
	var ops, scatter, busy, wall, reduce, window, self, imbalance, steals []float64
	for _, t := range in.traced {
		r := t.res
		ph := r.Stats.Phase
		ops = append(ops, t.sec)
		scatter = append(scatter, ph.Scatter.Seconds())
		busy = append(busy, ph.BucketSum.Seconds())
		wall = append(wall, ph.BucketSumWall.Seconds())
		reduce = append(reduce, ph.BucketReduce.Seconds())
		window = append(window, ph.WindowReduce.Seconds())
		// What is left is planning, recoding and scheduling. In the
		// concurrent engine the workers scatter a window when they first
		// need it and the host reduces buckets while later windows sum,
		// so both lie inside the bucket-sum wall span: they are reported
		// but not subtracted again.
		self = append(self, t.sec-(ph.BucketSumWall+ph.WindowReduce).Seconds())
		steals = append(steals, float64(r.Stats.Faults.Steals))
		var maxBusy, sumBusy time.Duration
		for _, g := range r.Stats.PerGPU {
			maxBusy = max(maxBusy, g.Busy)
			sumBusy += g.Busy
		}
		if sumBusy > 0 {
			imbalance = append(imbalance, float64(maxBusy)*float64(len(r.Stats.PerGPU))/float64(sumBusy))
		}
	}
	opSec := median(ops)
	m["core.scatter_s"] = median(scatter)
	m["core.bucket_sum_busy_s"] = median(busy)
	m["core.bucket_sum_wall_s"] = median(wall)
	m["core.bucket_reduce_s"] = median(reduce)
	m["core.window_reduce_s"] = median(window)
	m["core.self_s"] = median(self)
	m["core.gpu_busy_imbalance"] = median(imbalance)

	m["core.steals"] = median(steals)

	first := in.traced[0].res // counts and modeled costs repeat exactly for one input
	m["core.pacc_ops"] = float64(first.Stats.PACCOps)
	m["core.reduce_ops"] = float64(first.Stats.ReduceOps)
	m["core.window_ops"] = float64(first.Stats.WindowOps)
	m["core.window_bits"] = float64(first.Plan.S)
	m["core.shards"] = float64(len(first.Plan.Assignments))
	m["core.retries"] = float64(first.Stats.Faults.Retries)
	m["core.verification_runs"] = float64(first.Stats.Faults.VerificationRuns)

	m["gpusim.modeled_op_s"] = first.Cost.Total()
	m["gpusim.modeled_scatter_s"] = first.Cost.Scatter
	m["gpusim.modeled_bucket_sum_s"] = first.Cost.BucketSum
	m["gpusim.modeled_bucket_reduce_s"] = first.Cost.BucketReduce
	m["gpusim.modeled_transfer_s"] = first.Cost.Transfer
	m["gpusim.model_real_ratio"] = first.Cost.Total() / opSec

	// The paper's scale, priced analytically (Table 3 / Figure 8).
	for _, cfg := range []struct {
		gpus int
		name string
	}{{8, "gpusim.analytic_2p26_8gpu_s"}, {32, "gpusim.analytic_2p26_32gpu_s"}} {
		sys, err := distmsm.NewSystem(distmsm.A100, cfg.gpus)
		if err != nil {
			return err
		}
		est, err := sys.EstimateContext(ctx, in.c, 1<<26)
		if err != nil {
			return err
		}
		m[cfg.name] = est.Cost.Total()
	}
	m["gpusim.estimate_call_ns"] = perCallNS(o.reps(100), func() { _, _ = in.sys.EstimateContext(ctx, in.c, 1<<20) })

	// Other uses of the same layer, on the same input.
	var err error
	reps := o.reps(10)
	if m["msm.pippenger_s"], err = medianSeconds(reps, func() error {
		_, err := distmsm.CPUMSM(in.c, in.points, in.scalars[0])
		return err
	}); err != nil {
		return err
	}
	m["core.vs_pippenger_ratio"] = opSec / m["msm.pippenger_s"]
	if m["core.serial_engine_s"], err = medianSeconds(reps, func() error {
		_, err := in.sys.MSMContext(ctx, in.c, in.points, in.scalars[0], distmsm.WithEngine(distmsm.EngineSerial))
		return err
	}); err != nil {
		return err
	}

	// The program's own tracer: ops alternating with and without it.
	var with, without []float64
	tracer := distmsm.NewTracer(0)
	for i := 0; i < 6*reps; i++ {
		var opts []distmsm.Option
		if i%2 == 1 {
			opts = append(opts, distmsm.WithTracer(tracer))
		}
		t0 := time.Now()
		if _, err := in.sys.MSMContext(ctx, in.c, in.points, in.scalars[i%msmInputs], opts...); err != nil {
			return err
		}
		if dt := time.Since(t0).Seconds(); i%2 == 1 {
			with = append(with, dt)
		} else {
			without = append(without, dt)
		}
	}
	m["telemetry.tracer_overhead_ratio"] = median(with) / median(without)

	probeBigint(o, in.c, "4", m)
	probeField(o, in.c.Fp, m)
	probeCurve(o, in.c, in.points, m)
	return nil
}
