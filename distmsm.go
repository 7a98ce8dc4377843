// Package distmsm is the public API of this DistMSM reproduction: a
// multi-scalar-multiplication library for zero-knowledge proof systems,
// with an execution engine that schedules Pippenger's algorithm across a
// (simulated) distributed multi-GPU system as described in "Accelerating
// Multi-Scalar Multiplication for Efficient Zero Knowledge Proofs with
// Multi-GPU Systems" (ASPLOS 2024).
//
// Quick start:
//
//	c, _ := distmsm.Curve("BN254")
//	points := c.SamplePoints(1<<12, 1)
//	scalars := c.SampleScalars(1<<12, 2)
//	sys, _ := distmsm.NewSystem(distmsm.A100, 8)
//	res, _ := sys.MSMContext(context.Background(), c, points, scalars)
//	fmt.Println(c.ToAffine(res.Point), res.Cost.Total())
//
// MSMContext is the primary entry point: it is cancellable through its
// context, configured with functional options (WithWindowBits,
// WithEngine, ...), and by default runs the concurrent per-GPU engine —
// one host worker per simulated GPU, with the CPU bucket-reduce of
// window j overlapped with the bucket-sum of window j+1 (§3.2.3).
// EngineSerial runs the same execution body at width 1, inline on the
// caller's goroutine. Failures match the sentinel errors ErrLengthMismatch,
// ErrScalarTooWide, ErrEmptyInput and ErrNoGPUs via errors.Is.
//
// The concurrent engine is fault-tolerant: WithFaultInjection turns on
// deterministic fault injection on the simulated GPUs (transient
// errors, stragglers, corrupted results, permanently lost devices), and
// the scheduler recovers with retries, speculative re-execution, shard
// reassignment and randomized result verification while keeping the
// answer bit-identical to the fault-free run. If every GPU is lost the
// plan is re-run on the host with the faults detached
// (Stats.Faults.DegradedToSerial) unless the fault config forbids it, in
// which case ErrAllGPUsLost is returned. WithRetryPolicy and WithVerifySampling tune the recovery.
//
// For a base vector that many MSMs share (a proving-key column),
// PrecomputeBases builds the §2.3.1 per-window tables once and
// WithPrecomputedBases runs an MSM over them. WithGLV is a table
// option: it folds the GLV endomorphism split into the tables, and an
// MSM given WithGLV without tables returns an error.
//
// The packages under internal/ hold the implementation: finite fields,
// curves, the CPU Pippenger, the GPU performance model, the DistMSM
// scheduler, tensor-core arithmetic, NTT, pairing and Groth16. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package distmsm

import (
	"context"

	"distmsm/internal/baselines"
	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/experiments"
	"distmsm/internal/gpusim"
	"distmsm/internal/kernel"
	"distmsm/internal/msm"
	"distmsm/internal/telemetry"
)

// Re-exported core types.
type (
	// CurveParams describes one supported elliptic curve.
	CurveParams = curve.Curve
	// PointAffine is an affine curve point.
	PointAffine = curve.PointAffine
	// PointXYZZ is a point in the XYZZ coordinate system.
	PointXYZZ = curve.PointXYZZ
	// Scalar is a little-endian multi-precision MSM scalar.
	Scalar = bigint.Nat
	// Result carries the MSM value, modeled cost, execution plan and
	// the per-phase/per-GPU execution statistics.
	Result = core.Result
	// Stats are the execution statistics of a functional run.
	Stats = core.Stats
	// GPUStats is one simulated GPU's share of a concurrent execution.
	GPUStats = core.GPUStats
	// Cost is a modeled wall-time breakdown.
	Cost = gpusim.Cost
	// Device describes a GPU model.
	Device = gpusim.Device
	// Engine selects the host execution engine.
	Engine = core.Engine
	// KernelVariant identifies a PADD-kernel optimisation level.
	KernelVariant = kernel.Variant
	// FaultConfig sets the per-shard fault-injection probabilities and
	// the deterministic seed (see WithFaultInjection).
	FaultConfig = gpusim.FaultConfig
	// FaultStats counts the injected faults and recovery actions of one
	// execution (Stats.Faults).
	FaultStats = core.FaultStats
	// RetryPolicy tunes the fault-tolerant scheduler's retry backoff,
	// per-owner attempt budget and straggler-speculation deadline.
	RetryPolicy = core.RetryPolicy
	// Tracer is a fixed-capacity span ring that records the phases of an
	// MSM execution (see WithTracer); its contents export as Chrome
	// trace_event JSON via WriteChromeTrace / WriteChromeTraceFile.
	Tracer = telemetry.Tracer
	// TraceSpan is one recorded tracer span.
	TraceSpan = telemetry.Span
	// FixedBase is an immutable fixed-base precomputation (per-window
	// point tables, optionally with the GLV split folded in). Build with
	// PrecomputeBases; attach to an MSM with WithPrecomputedBases.
	FixedBase = core.FixedBase
)

// PrecomputeBases builds the §2.3.1 per-window tables for a fixed base
// vector — the strategy behind WithPrecomputedBases. Honoured options
// are WithWindowBits (0 auto-selects the cheapest merged-window size)
// and WithGLV (fold the endomorphism split into the tables; every base
// point must then lie in the prime-order subgroup). The tables cost
// Windows()× the base-vector storage (see FixedBase.MemoryBytes) and
// are safe for concurrent use; amortise one across many MSMs.
func PrecomputeBases(c *CurveParams, points []PointAffine, opts ...Option) (*FixedBase, error) {
	return core.NewFixedBase(c, points, buildOptions(opts))
}

// NewTracer allocates a span ring with the given capacity (≤ 0 selects
// telemetry.DefaultSpanCapacity). All allocation happens here: recording
// spans into the ring is allocation-free.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// The execution engines of MSMContext.
const (
	// EngineSerial runs the engine body at width 1: every shard in plan
	// order on the caller's goroutine, fault injection, verification and
	// the health registry ignored, no per-GPU stats.
	EngineSerial = core.EngineSerial
	// EngineConcurrent runs one worker per simulated GPU and overlaps
	// the host bucket-reduce with later windows' bucket-sum (§3.2.3).
	// It produces bit-identical results to EngineSerial.
	EngineConcurrent = core.EngineConcurrent
)

// Kernel optimisation levels, in the cumulative Figure 12 order.
const (
	KernelBaseline     = kernel.VariantBaseline
	KernelPACC         = kernel.VariantPACC
	KernelOptimalOrder = kernel.VariantOptimalOrder
	KernelSpill        = kernel.VariantSpill
	KernelTensorCore   = kernel.VariantTensorCore
	KernelTCCompact    = kernel.VariantTCCompact
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrLengthMismatch reports points/scalars vectors of unequal length.
	ErrLengthMismatch = core.ErrLengthMismatch
	// ErrScalarTooWide reports a scalar wider than the curve's scalar
	// field (scalars are rejected, never silently truncated).
	ErrScalarTooWide = core.ErrScalarTooWide
	// ErrNoGPUs reports a system requested with fewer than one GPU.
	ErrNoGPUs = gpusim.ErrNoGPUs
	// ErrEmptyInput reports a zero-length MSM (no points, no scalars).
	ErrEmptyInput = core.ErrEmptyInput
	// ErrAllGPUsLost reports that fault injection removed every device
	// and the fault config forbade completing the run on the host.
	ErrAllGPUsLost = core.ErrAllGPUsLost
	// ErrVerificationFailed reports a shard whose randomized result
	// verification kept failing past the execution budget (a corrupted
	// result the scheduler could not outrun).
	ErrVerificationFailed = core.ErrVerificationFailed
	// ErrBadDevice reports a device spec with non-physical parameters.
	ErrBadDevice = gpusim.ErrBadDevice
	// ErrBadFaultConfig reports a fault config with probabilities outside
	// [0, 1], a class sum above 1, or a negative straggler factor.
	ErrBadFaultConfig = gpusim.ErrBadFaultConfig
)

// Option configures one MSM execution of the *Context entry points.
type Option func(*core.Options)

// WithWindowBits forces the window size s, for the plan that runs and
// the plan that is priced alike (Result.Plan == Result.Priced). Without
// it the §3.1 workload model searches for the cheapest size, which
// Result.Cost prices, and the same work runs at the window that
// minimises the host's bucket work (Result.Plan).
func WithWindowBits(s int) Option {
	return func(o *core.Options) { o.WindowSize = s }
}

// WithSignedDigits toggles signed-digit recoding (on by default; off
// doubles the bucket count).
func WithSignedDigits(on bool) Option {
	return func(o *core.Options) { o.Unsigned = !on }
}

// WithEngine selects the width of the execution engine: EngineConcurrent
// (the *Context entry points' default) runs one worker per simulated
// GPU, EngineSerial runs the same body inline on the caller's goroutine.
func WithEngine(e Engine) Option {
	return func(o *core.Options) { o.Engine = e }
}

// WithKernelVariant pins the accumulation-kernel optimisation level
// (default: the full tensor-core + compaction pipeline).
func WithKernelVariant(v KernelVariant) Option {
	return func(o *core.Options) { o.Variant = v; o.VariantSet = true }
}

// WithHierarchicalScatter toggles the three-level bucket scatter of
// §3.2.1 (on by default where shared memory allows it).
func WithHierarchicalScatter(on bool) Option {
	return func(o *core.Options) { o.ForceNaiveScatter = !on }
}

// WithGPUReduce keeps bucket-reduce on the GPUs instead of the §3.2.3
// CPU offload.
func WithGPUReduce(on bool) Option {
	return func(o *core.Options) { o.ReduceOnGPU = on }
}

// WithSplitNDim shares a window across GPUs by splitting the point
// range — the paper's rejected first approach, kept for ablations.
func WithSplitNDim(on bool) Option {
	return func(o *core.Options) { o.SplitNDim = on }
}

// WithFaultInjection turns on deterministic fault injection on the
// simulated GPUs of the concurrent engine: each shard execution rolls —
// as a pure function of cfg.Seed and the shard's identity, so runs are
// reproducible — for a transient error, a straggler stall, a corrupted
// accumulator or a permanent device loss, and the scheduler recovers
// (retry with backoff, speculation, reassignment to survivors,
// verification) while keeping the result bit-identical to the
// fault-free execution. Recovery actions are reported in Stats.Faults.
func WithFaultInjection(cfg FaultConfig) Option {
	return func(o *core.Options) { c := cfg; o.Faults = &c }
}

// WithRetryPolicy tunes the fault-tolerant scheduler: retry backoff
// bounds, the consecutive-failure budget before a shard moves to
// another GPU, and the straggler-speculation deadline multiple. Zero
// fields keep their defaults.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *core.Options) { o.Retry = p }
}

// WithVerifySampling sets the per-shard probability of result
// verification. p = 0 restores the default: verify every shard when
// corrupted-result injection is configured, none otherwise. A negative
// p disables verification; p > 1 clamps to 1. A sampled shard gets the
// constant-size outsourced check: aggregate the shard's references once
// with a secret sparse mask mixed in and compare against the folded
// claim — no per-bucket recompute.
func WithVerifySampling(p float64) Option {
	return func(o *core.Options) { o.VerifySampling = p }
}

// WithTracer records a span for every phase of the execution into tr:
// each window's scatter, every (window, bucket-range) shard execution
// with its GPU, attempt number and speculative flag, each window's
// bucket-reduce, and the final window-reduce. The ring is fixed-capacity
// (oldest spans drop first) and recording is allocation-free; a nil
// tracer — the default — costs a single pointer check on the shard hot
// path. Export the result with Tracer.WriteChromeTrace (chrome://tracing
// / Perfetto format).
func WithTracer(tr *Tracer) Option {
	return func(o *core.Options) { o.Tracer = tr }
}

// WithPrecomputedBases routes the execution through fb's per-window
// precomputed tables (§2.3.1 merged-window evaluation): every window's
// signed digits scatter into one shared bucket array indexing the flat
// 2^(j·s)·B_i table vector, so the MSM runs as a single-window plan with
// no Horner doubling ladder. The scalars must match fb.N() and the
// points argument must be the vector fb was built from (it is not read
// — the tables stand in for it). Build fb once per base vector with
// PrecomputeBases and reuse it across MSMs; results are bit-identical
// to the plain path.
func WithPrecomputedBases(fb *FixedBase) Option {
	return func(o *core.Options) { o.FixedBase = fb }
}

// WithGLV is a PrecomputeBases option: it folds the GLV endomorphism
// split (§2.3.2) into the tables. Each scalar k is decomposed as
// k = k1 + λ·k2 with |k1|,|k2| ≈ √r, and the tables cover 2N points —
// [P_i…, φ(P_i)…] — at half the window count. Requires an a=0 curve
// with a known endomorphism (BN254, BLS12-381) and points in the
// prime-order subgroup. On an MSM it is valid only together with
// WithPrecomputedBases over such tables; without them the MSM returns
// an error (there is no variable-base GLV strategy). Results are
// bit-identical to the plain path.
func WithGLV(on bool) Option {
	return func(o *core.Options) { o.GLV = on }
}

// buildOptions resolves functional options over the *Context defaults.
func buildOptions(opts []Option) core.Options {
	o := core.Options{Engine: core.EngineConcurrent}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// DeviceModel selects a GPU profile for NewSystem.
type DeviceModel int

// The modeled devices of the paper's evaluation (§5.2).
const (
	A100 DeviceModel = iota
	RTX4090
	AMD6900XT
)

func (d DeviceModel) device() Device {
	switch d {
	case RTX4090:
		return gpusim.RTX4090()
	case AMD6900XT:
		return gpusim.AMD6900XT()
	default:
		return gpusim.A100()
	}
}

// Curves lists the supported curve names (Table 1).
func Curves() []string { return curve.Names() }

// Curve returns the named curve.
func Curve(name string) (*CurveParams, error) { return curve.ByName(name) }

// System is a simulated multi-GPU execution target.
type System struct {
	cluster *gpusim.Cluster
}

// NewSystem builds an n-GPU system of the given device model. It
// returns ErrNoGPUs when n < 1.
func NewSystem(model DeviceModel, n int) (*System, error) {
	cl, err := gpusim.NewCluster(model.device(), n)
	if err != nil {
		return nil, err
	}
	return &System{cluster: cl}, nil
}

// GPUs returns the system's GPU count.
func (s *System) GPUs() int { return s.cluster.N }

// DeviceName returns the modeled device name.
func (s *System) DeviceName() string { return s.cluster.Dev.Name }

// MSMContext computes Σ scalars[i]·points[i] with the DistMSM
// scheduler, returning the exact result together with the modeled
// execution cost and the execution statistics.
//
// The context is honoured at every shard boundary (and inside the host
// bucket-reduce): cancelling it makes MSMContext return ctx.Err()
// promptly without leaking workers. With no options the concurrent
// per-GPU engine runs with an auto-selected window size. A zero-length
// input is rejected with ErrEmptyInput.
func (s *System) MSMContext(ctx context.Context, c *CurveParams, points []PointAffine, scalars []Scalar, opts ...Option) (*Result, error) {
	return core.RunContext(ctx, c, s.cluster, points, scalars, buildOptions(opts))
}

// EstimateContext prices an N-point MSM on the system without computing
// it (the paper-scale analytic mode), under the same options as
// MSMContext.
func (s *System) EstimateContext(ctx context.Context, c *CurveParams, n int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.Analytic(c, s.cluster, n, buildOptions(opts))
}

// EstimatePipelinedContext prices `count` back-to-back MSMs with the
// §3.2.3 software pipeline (the CPU bucket-reduce of one MSM hides
// behind the GPU phases of the next), under the same options as
// MSMContext.
func (s *System) EstimatePipelinedContext(ctx context.Context, c *CurveParams, n, count int, opts ...Option) (Cost, error) {
	if err := ctx.Err(); err != nil {
		return Cost{}, err
	}
	plan, err := core.BuildPlan(c, s.cluster, n, buildOptions(opts))
	if err != nil {
		return Cost{}, err
	}
	return plan.EstimatePipeline(count)
}

// CPUMSM computes the MSM with the host Pippenger implementation
// (reference / fallback path, no simulation). Unlike MSMContext, an
// empty input is answered with a non-nil point at infinity: the CPU
// path has no plan to build, so the identity is well-defined and cheap.
func CPUMSM(c *CurveParams, points []PointAffine, scalars []Scalar) (*PointXYZZ, error) {
	return msm.MSM(c, points, scalars, msm.Config{Signed: true})
}

// BestBaseline returns the modeled time (seconds) and name of the
// fastest published baseline (Table 2) for the configuration.
func BestBaseline(c *CurveParams, model DeviceModel, gpus, n int) (float64, string, error) {
	t, b, err := baselines.BestGPU(c, model.device(), gpus, n)
	if err != nil {
		return 0, "", err
	}
	return t, b.Name, nil
}

// Experiments lists the reproducible tables and figures of the paper.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one table or figure and returns its report.
func RunExperiment(name string) (string, error) { return experiments.Run(name) }
