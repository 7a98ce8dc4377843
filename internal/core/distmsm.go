package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/gpusim"
)

// Sentinel errors of the execution engines, matchable with errors.Is.
// The public API re-exports them.
var (
	// ErrLengthMismatch is returned when the point and scalar vectors
	// have different lengths.
	ErrLengthMismatch = errors.New("core: points/scalars length mismatch")
	// ErrScalarTooWide is returned when a scalar exceeds the curve's
	// scalar-field bit width (scalars are rejected, never truncated).
	ErrScalarTooWide = errors.New("core: scalar wider than the curve scalar field")
	// ErrEmptyInput is returned when an execution or plan is requested
	// for zero points: an empty MSM in a prover pipeline is almost
	// always an upstream bug, so it is rejected rather than answered
	// with the identity.
	ErrEmptyInput = errors.New("core: empty input, MSM needs at least one point")
	// ErrAllGPUsLost is returned by the concurrent engine when fault
	// injection removes every simulated GPU and the host fallback is
	// disabled.
	ErrAllGPUsLost = errors.New("core: every simulated GPU was lost")
	// ErrVerificationFailed is returned when a shard's randomized result
	// verification keeps rejecting its partial bucket sums even after
	// the retry budget is exhausted.
	ErrVerificationFailed = errors.New("core: shard result verification failed")
)

// PhaseTimes records the host-measured time of each functional
// execution phase. These are real durations of this host's goroutines
// (useful for engine comparisons), not the modeled GPU cost — that is
// Result.Cost.
//
// Bucket-sum has two distinct readings and the struct carries both:
//
//   - BucketSum is the *aggregate busy time* — the per-worker compute
//     seconds summed across every simulated GPU (Σ PerGPU.Busy for the
//     concurrent engine). It measures work done, so on a 4-GPU run it
//     can legitimately exceed the run's wall time.
//   - BucketSumWall is the *phase wall time* — the span from the first
//     shard launch to the last shard commit. It is the number to
//     compare against Scatter/BucketReduce/WindowReduce and against
//     the run's total duration.
//
// Invariant (concurrent engine, workers kept busy): BucketSumWall ≤
// BucketSum = Σ PerGPU.Busy, with equality only on one GPU with no
// idle gaps. Earlier revisions reported the aggregate under the name
// BucketSum alone, which made "phase time" exceed wall time on
// multi-GPU runs and the phases impossible to compare.
//
// The serial engine runs its shards back to back on one goroutine, so
// there BucketSumWall equals BucketSum, the summed shard durations.
type PhaseTimes struct {
	Scatter time.Duration
	// BucketSum is the aggregate bucket-sum busy time over all workers
	// (Σ PerGPU.Busy on the concurrent engine).
	BucketSum time.Duration
	// BucketSumWall is the bucket-sum phase's wall-clock span:
	// first-shard-start → last-shard-commit.
	BucketSumWall time.Duration
	BucketReduce  time.Duration
	WindowReduce  time.Duration
}

// GPUStats is one simulated GPU's share of a concurrent execution.
type GPUStats struct {
	// GPU is the simulated device index.
	GPU int
	// Shards is the number of (window, bucket-range) assignments the
	// GPU's worker executed.
	Shards int
	// PACCOps is the bucket-accumulation point operations it performed.
	PACCOps uint64
	// Busy is the cumulative host wall time its worker spent summing.
	Busy time.Duration
}

// FaultStats aggregates the fault-tolerance events of one concurrent
// execution: every injected fault the scheduler observed and every
// recovery action it took. The zero value means a fault-free run.
type FaultStats struct {
	// DevicesLost is the number of GPUs permanently removed mid-run.
	DevicesLost int
	// TransientErrors is the number of shard executions that failed
	// recoverably.
	TransientErrors int
	// Stragglers is the number of shard executions slowed by injection.
	Stragglers int
	// Corruptions is the number of shard executions whose result was
	// perturbed by injection.
	Corruptions int
	// Retries is the number of shard re-executions queued after a
	// failure (transient or verification), with capped backoff.
	// Executions torn down by run cancellation are not retries and are
	// never counted here.
	Retries int
	// Steals is the number of shards a worker took from another healthy
	// GPU's queue instead of idling.
	Steals int
	// Reassignments is the number of shards moved to a different GPU —
	// requeues off a lost device plus retry escalations.
	Reassignments int
	// SpeculativeLaunches is the number of speculative duplicate
	// executions started for overdue shards; SpeculativeWins counts how
	// many of them committed before the original.
	SpeculativeLaunches int
	SpeculativeWins     int
	// VerificationRuns is the number of sampled randomized result
	// verifications; VerificationFailures counts rejections (each
	// triggers a re-execution).
	VerificationRuns     int
	VerificationFailures int
	// DegradedToSerial reports that every GPU was lost and the run was
	// completed on the host: the plan re-run with the fault injector and
	// health registry detached.
	DegradedToSerial bool
}

// Any reports whether any fault event was recorded.
func (f FaultStats) Any() bool { return f != FaultStats{} }

// Stats aggregates the simulated-hardware event counts of one execution.
// The op-count fields are engine-independent: the serial and concurrent
// engines perform bit-identical work and report identical counts.
type Stats struct {
	Scatter ScatterStats
	// PACCOps is the bucket-accumulation point operations (all GPUs).
	PACCOps uint64
	// ReduceOps is the bucket-reduce point operations (CPU or GPU).
	ReduceOps uint64
	// WindowOps is the final window-reduction point operations.
	WindowOps uint64
	// Phase is the cumulative host busy time per phase.
	Phase PhaseTimes
	// PerGPU breaks the bucket-sum work down by simulated GPU. It is
	// populated by the concurrent engine only (nil for the serial one
	// and for a run completed by the all-GPUs-lost fallback).
	PerGPU []GPUStats
	// Faults records the fault-tolerance events of the run (concurrent
	// engine; zero for a fault-free or serial execution).
	Faults FaultStats
}

func (s *ScatterStats) add(o ScatterStats) {
	s.GlobalAtomics += o.GlobalAtomics
	s.SharedAtomics += o.SharedAtomics
	s.Passes += o.Passes
}

// Result is the outcome of a DistMSM execution.
type Result struct {
	// Point is the MSM value (nil in analytic mode).
	Point *curve.PointXYZZ
	// Cost is the modeled wall-time breakdown on the cluster: the price
	// of Priced.
	Cost gpusim.Cost
	// Plan is the plan that ran; Stats, PerGPU and the trace spans
	// describe it.
	Plan *Plan
	// Priced is the §3.1 plan Cost was computed from. It is Plan itself
	// unless RunContext chose the executed window (Options.WindowSize 0,
	// see executedPlan).
	Priced *Plan
	Stats  Stats
}

// RunContext executes DistMSM functionally: it computes the exact MSM
// result by running the real scatter/sum/reduce phases of a plan, and
// prices the §3.1 plan with the GPU cost model. With a pinned window
// the plan that runs is the plan that is priced; with Options.WindowSize
// 0 the priced plan's work runs at the host's window (Result.Plan
// against Result.Priced). Use Analytic for paper-scale sizes.
//
// The context is checked at every shard boundary: cancelling it makes
// RunContext return ctx.Err() promptly without leaking workers.
// Options.Engine selects the width of the one scheduled body — inline
// on the caller's goroutine, or one worker per simulated GPU; both
// produce bit-identical points and op counts.
//
// A zero-length input is rejected with ErrEmptyInput; mismatched vector
// lengths with ErrLengthMismatch. With Options.Faults set, a
// deterministic fault injector is attached to (a copy of) the cluster
// and the concurrent engine recovers from the injected faults; see
// FaultStats and RetryPolicy.
func RunContext(ctx context.Context, c *curve.Curve, cl *gpusim.Cluster, points []curve.PointAffine, scalars []bigint.Nat, opts Options) (*Result, error) {
	if len(points) != len(scalars) {
		return nil, fmt.Errorf("%w: %d points but %d scalars", ErrLengthMismatch, len(points), len(scalars))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: got 0 points and 0 scalars", ErrEmptyInput)
	}
	for i, k := range scalars {
		if k.BitLen() > c.ScalarBits {
			return nil, fmt.Errorf("%w: scalar %d has %d bits, curve limit is %d",
				ErrScalarTooWide, i, k.BitLen(), c.ScalarBits)
		}
	}
	if err := opts.Retry.Validate(); err != nil {
		return nil, err
	}
	if opts.GLV && opts.FixedBase == nil {
		return nil, fmt.Errorf("core: GLV is a fixed-base table option: build the tables with NewFixedBase and GLV set")
	}
	if opts.Faults != nil {
		inj, err := gpusim.NewFaultInjector(*opts.Faults)
		if err != nil {
			return nil, err
		}
		cl = cl.WithFaults(inj)
	}
	if opts.FixedBase != nil {
		// Fixed-base strategy: the base vector lives in the precomputed
		// tables; the caller's points are only checked for identity above.
		return runFixedBase(ctx, c, cl, scalars, opts)
	}
	// One admission for both plans: the breaker ticks once per run.
	adm := admit(cl)
	priced, err := pricedPlan(c, cl, len(points), opts, adm)
	if err != nil {
		return nil, err
	}
	plan, err := executedPlan(c, cl, len(points), opts, priced, adm)
	if err != nil {
		return nil, err
	}
	return execute(ctx, points, scalars, plan, priced, opts)
}

// execute runs plan on the engine opts selects and attaches the priced
// plan's modeled cost to the result. When every simulated GPU is lost
// mid-run and the fault config allows it, the plan is re-run on the
// host — throughput degrades, correctness does not.
func execute(ctx context.Context, points []curve.PointAffine, scalars []bigint.Nat, plan, priced *Plan, opts Options) (*Result, error) {
	var res *Result
	var faults FaultStats
	var err error
	switch opts.Engine {
	case EngineConcurrent:
		res, faults, err = runScheduled(ctx, points, scalars, plan, opts)
		if inj := plan.Cluster.Faults; errors.Is(err, ErrAllGPUsLost) && inj != nil && !inj.Config().DisableFallback {
			res, err = runHost(ctx, points, scalars, plan, opts)
			faults.DegradedToSerial = true
		}
	case EngineSerial:
		res, err = runHost(ctx, points, scalars, plan, opts)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", opts.Engine)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.Faults = faults
	res.Priced = priced
	res.Cost = priced.EstimateCost()
	return res, nil
}

// Analytic prices an N-point MSM on the cluster without computing it —
// the mode used for the paper-scale inputs (2^22–2^28) of Table 3.
func Analytic(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options) (*Result, error) {
	plan, err := BuildPlan(c, cl, n, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Priced: plan, Cost: plan.EstimateCost()}, nil
}

// scatterWindow runs the plan's bucket scatter on one window's digits.
func scatterWindow(p *Plan, digits []int32) (*ScatterResult, error) {
	if p.Hierarchical {
		return HierarchicalScatter(digits, p.Buckets, p.Block)
	}
	return NaiveScatter(digits, p.Buckets)
}

// bucketScratch is the reusable per-worker state of sumBucketRange: the
// adder's registers and the negation temporary survive across shards so
// the inner accumulation loop allocates nothing beyond the bucket
// accumulators themselves.
type bucketScratch struct {
	a    *curve.Adder
	negY field.Element
}

func newBucketScratch(c *curve.Curve) *bucketScratch {
	return &bucketScratch{a: c.NewAdder(), negY: c.Fp.NewElement()}
}

// sumBucketRange accumulates buckets[lo:hi] into out[lo:hi]: one PACC
// per referenced point, negating references with negative sign. It is
// the per-shard kernel of the scheduled body, and it validates the bucket
// references so a corrupt scatter surfaces as an error instead of a
// silent wrong answer or panic. The accumulators for the range come
// from one flat arena (NewXYZZBatch), and scr holds the caller's
// reusable scratch — each worker owns one.
func sumBucketRange(c *curve.Curve, points []curve.PointAffine, buckets [][]int32, lo, hi int, out []*curve.PointXYZZ, scr *bucketScratch) (uint64, error) {
	a, negY := scr.a, scr.negY
	nonEmpty := 0
	for b := lo; b < hi; b++ {
		if len(buckets[b]) > 0 {
			nonEmpty++
		}
	}
	batch := c.NewXYZZBatch(nonEmpty)
	next := 0
	var ops uint64
	for b := lo; b < hi; b++ {
		if len(buckets[b]) == 0 {
			continue
		}
		acc := &batch[next]
		next++
		for _, ref := range buckets[b] {
			negated := ref < 0
			if negated {
				ref = -ref
			}
			if ref < 1 || int(ref) > len(points) {
				return ops, fmt.Errorf("core: bucket %d references point %d outside the %d-point input", b, ref, len(points))
			}
			pt := &points[int(ref)-1]
			if pt.Inf {
				continue
			}
			if negated {
				c.Fp.Neg(negY, pt.Y)
				neg := curve.PointAffine{X: pt.X, Y: negY}
				a.Acc(acc, &neg)
			} else {
				a.Acc(acc, pt)
			}
			ops++
		}
		out[b] = acc
	}
	return ops, nil
}

// reduceBuckets computes Σ i·B_i with the serial running-suffix method
// (two PADDs per bucket — the "few thousand PADD operations" of §3.2.3)
// and returns the window sum with its PADD count. Cancellation is
// checked every 256 buckets, so a cancel lands mid-reduce instead of
// waiting out a whole window (the reduce of one large-window 753-bit
// curve can run for tens of milliseconds).
func reduceBuckets(ctx context.Context, c *curve.Curve, buckets []*curve.PointXYZZ, a *curve.Adder) (*curve.PointXYZZ, uint64, error) {
	running := c.NewXYZZ()
	total := c.NewXYZZ()
	var ops uint64
	for i := len(buckets) - 1; i >= 1; i-- {
		if i&0xFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, ops, err
			}
		}
		if buckets[i] != nil {
			a.Add(running, buckets[i])
			ops++
		}
		a.Add(total, running)
		ops++
	}
	return total, ops, nil
}

// EstimateCost prices the plan on the cluster: the phase times of the
// most-loaded GPU, host transfers, and the (possibly overlapped) reduce.
func (p *Plan) EstimateCost() gpusim.Cost {
	model := p.Cluster.Model()
	bits := p.Curve.Fp.Bits()
	nt := float64(p.NT)
	var cost gpusim.Cost

	// Per-GPU load: points and buckets from the assignments (uniform
	// digit distribution: a bucket range holds N·range/buckets points).
	// Indexed by device, with one shared array of (device, window) marks:
	// the planner prices ~40 candidate plans per MSM.
	type load struct {
		points  float64
		buckets float64
		windows int // distinct windows the GPU works on; 0 = no share
	}
	loads := make([]load, p.Cluster.N)
	if p.SplitNDim {
		// Rejected first approach of §3.2.2: every GPU runs all windows
		// over an N/N_gpu point slice and emits a full bucket array.
		for g := range loads {
			loads[g] = load{
				points:  float64(p.N) / float64(p.Cluster.N) * float64(p.Windows),
				buckets: float64(p.Buckets) * float64(p.Windows),
				windows: p.Windows,
			}
		}
	} else {
		seen := make([]bool, p.Cluster.N*p.Windows)
		for _, a := range p.Assignments {
			l := &loads[a.GPU]
			frac := float64(a.BucketHi-a.BucketLo) / float64(p.Buckets)
			l.points += float64(p.N) * frac
			l.buckets += float64(a.BucketHi - a.BucketLo)
			if mark := &seen[a.GPU*p.Windows+a.Window]; !*mark {
				*mark = true
				l.windows++
			}
		}
	}

	var maxScatter, maxSum float64
	for _, l := range loads {
		if l.windows == 0 {
			continue
		}
		// --- bucket-scatter ---
		var scatter float64
		if p.Hierarchical {
			// Two shared atomics per point (count + place), contention
			// from the block's threads spread over the buckets; one
			// global atomic per non-empty local bucket per pass.
			shmContention := float64(p.Block.Threads) / float64(p.Buckets)
			scatter += model.SharedAtomicSeconds(2*l.points, shmContention)
			passes := math.Ceil(l.points / float64(p.Block.PointsPerBlock()))
			nonEmpty := math.Min(float64(p.Buckets), float64(p.Block.PointsPerBlock()))
			activeBlocks := nt / float64(p.Block.Threads)
			globContention := activeBlocks / float64(p.Buckets)
			scatter += model.GlobalAtomicSeconds(passes*nonEmpty, globContention)
		} else {
			globContention := nt / float64(p.Buckets)
			scatter += model.GlobalAtomicSeconds(l.points, globContention)
		}
		// Streaming each window's s-bit coefficient slices and writing
		// the scattered point ids.
		winCount := float64(l.windows)
		scatter += model.MemSeconds(winCount*float64(p.N)*float64(p.S)/8) +
			model.MemSeconds(l.points*4)
		if scatter > maxScatter {
			maxScatter = scatter
		}

		// --- bucket-sum ---
		// Per-thread work: P/N_T accumulations plus the intra-bucket
		// reduction of log2(threads-per-bucket) PADDs (§3.2.2).
		perThread := l.points / nt
		if l.buckets > 0 && l.buckets < nt {
			perThread += math.Log2(nt / l.buckets)
		}
		sum := model.ECOpSeconds(p.Spec, bits, perThread*nt)
		// Reading each point once from device memory.
		sum += model.MemSeconds(l.points * 2 * float64(bits) / 8)
		if sum > maxSum {
			maxSum = sum
		}
	}
	cost.Scatter = maxScatter
	cost.BucketSum = maxSum

	// --- bucket-reduce ---
	// N-dim splitting (§3.2.2's rejected first approach) leaves every
	// GPU with all windows to reduce — or, on the CPU path, ships N_gpu
	// full bucket arrays to the host ("increasing the CPU's workload").
	reduceOps := float64(p.Windows) * 2 * float64(p.Buckets)
	if p.SplitNDim {
		reduceOps *= float64(p.Cluster.N)
	}
	if p.ReduceOnGPU {
		// The paper's per-thread GPU formula: 2s·⌈B/N_T⌉ doubling-ladder
		// work plus the parallel-reduction tail with global syncs.
		chunk := math.Ceil(float64(p.Buckets) / nt)
		perThread := 2*float64(p.S)*chunk +
			math.Min(chunk+math.Log2(nt), float64(p.S))
		winPerGPU := math.Ceil(float64(p.Windows) / float64(p.Cluster.N))
		if p.SplitNDim {
			winPerGPU = float64(p.Windows) // not amortised across GPUs
		}
		cost.BucketReduce = model.ECOpSeconds(p.PADDSpec, bits, winPerGPU*perThread*nt)
	} else {
		cost.BucketReduce = gpusim.CPUECOpSeconds(p.Cluster.Host, p.PADDSpec, bits, reduceOps)
		cost.ReduceOnCPU = true
	}

	// --- window-reduce (host, negligible) ---
	cost.WindowReduce = gpusim.CPUECOpSeconds(p.Cluster.Host, p.PADDSpec, bits,
		float64(p.Curve.ScalarBits)+float64(p.Windows))

	// --- transfers. Following the kernel-only timing convention of the
	// GPU MSM baselines, the scalar vector is staged on (or streamed to)
	// the devices overlapped with preceding work; only per-phase launch
	// latencies and the per-window result readback are on the clock.
	// N-dim splitting additionally merges N_gpu full bucket arrays on
	// the host — the CPU burden that made the paper reject it (§3.2.2).
	launches := float64(p.Windows + len(p.Assignments))
	resultBytes := float64(p.Windows) * 4 * float64(bits) / 8
	if p.SplitNDim {
		// Every GPU returns one partial result per window; the host sums
		// the N_gpu partials (a handful of PADDs, priced in WindowReduce).
		resultBytes *= float64(p.Cluster.N)
		cost.WindowReduce += gpusim.CPUECOpSeconds(p.Cluster.Host, p.PADDSpec, bits,
			float64(p.Cluster.N-1))
	}
	cost.Transfer = launches*p.Cluster.IC.HostLatency +
		gpusim.HostTransferSeconds(resultBytes, p.Cluster.IC)
	return cost
}
