package core

import (
	"fmt"
	"sync"

	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/kernel"
	"distmsm/internal/telemetry"
)

// Options configure a DistMSM execution. The zero value is the full
// DistMSM configuration of the paper; the ablation switches turn
// individual contributions off (used by the breakdown experiments).
type Options struct {
	// WindowSize forces s, and the plan that runs is the plan that is
	// priced. 0 prices the window the §3.1 workload model selects
	// (Result.Priced, Result.Cost) and runs the same work at the window
	// that minimises the host's bucket work (Result.Plan).
	WindowSize int
	// Variant selects the accumulation-kernel optimisation level;
	// DefaultVariant (tensor cores + compaction) unless set.
	Variant kernel.Variant
	// VariantSet marks Variant as explicitly chosen (allows Baseline).
	VariantSet bool
	// Unsigned disables signed-digit recoding.
	Unsigned bool
	// ForceNaiveScatter disables the hierarchical bucket scatter.
	ForceNaiveScatter bool
	// ReduceOnGPU keeps bucket-reduce on the GPUs instead of the §3.2.3
	// CPU offload.
	ReduceOnGPU bool
	// SplitNDim shares a window across GPUs by splitting the point range
	// (the paper's rejected first approach) instead of splitting buckets.
	SplitNDim bool
	// Engine selects the width of the one scheduled execution body (see
	// Engine). The zero value is EngineSerial: the plan's shards run
	// inline on the caller's goroutine, with faults, verification and
	// health ignored. EngineConcurrent runs one worker per simulated GPU.
	Engine Engine
	// Faults configures deterministic fault injection on the simulated
	// GPUs (concurrent engine only); nil injects nothing.
	Faults *gpusim.FaultConfig
	// Retry tunes the fault-tolerant scheduler (retry backoff, per-owner
	// attempt budget, speculation deadline). Zero value = defaults.
	Retry RetryPolicy
	// VerifySampling is the per-shard probability of the randomized
	// result-verification pass: 0 auto-enables full verification when
	// corrupted-result injection is configured, a negative value
	// disables verification entirely. A sampled shard gets the
	// constant-size challenge check of internal/outsource
	// (verifyShardChallenge).
	VerifySampling float64
	// FixedBase routes the execution through per-window precomputed
	// tables (§2.3.1): all windows scatter into one shared bucket array
	// indexed by the flat table vector, eliminating the per-window
	// bucket-reduces and the window-reduce doubling ladder. The scalars
	// must match the table's base vector; the points argument of the run
	// is ignored in favour of the tables. Build with NewFixedBase.
	FixedBase *FixedBase
	// GLV marks a FixedBase built with the curve's cube-root
	// endomorphism split folded in (k·P = k1·P + k2·φ(P), |k_i| ≈ √r):
	// NewFixedBase with GLV doubles the base vector and halves the
	// window count; RunContext with GLV requires such tables and
	// rejects GLV without FixedBase. Requires a j-invariant-0 curve
	// with a canonical subgroup generator (BN254, BLS12-381) and all
	// points in the prime-order subgroup.
	GLV bool
	// Tracer, when set, records a span for every scatter, shard
	// execution (with GPU/attempt/speculative labels), bucket-reduce
	// and window-reduce of the run — exportable as a Chrome trace_event
	// JSON via telemetry.Tracer.WriteChromeTrace. Nil disables tracing
	// at zero cost on the shard hot path.
	Tracer *telemetry.Tracer
}

// DefaultVariant is the full DistMSM accumulation kernel.
const DefaultVariant = kernel.VariantTCCompact

// maxHierarchicalS is the largest window size whose per-bucket counters
// and point ids fit shared memory (§5.3.2: execution fails for s > 14).
const maxHierarchicalS = 14

// Assignment gives one GPU a contiguous bucket range [BucketLo, BucketHi)
// of one window.
type Assignment struct {
	Window   int
	GPU      int
	BucketLo int
	BucketHi int
}

// Plan is a scheduled DistMSM execution.
type Plan struct {
	Curve   *curve.Curve
	Cluster *gpusim.Cluster

	N       int
	S       int
	Signed  bool
	Windows int
	// Buckets is the per-window bucket-array length (digit magnitudes
	// index it; slot 0 is unused).
	Buckets int
	Spec    kernel.Spec
	// PADDSpec is the general point-addition kernel at the same
	// optimisation level (bucket-reduce work is PADD-bound: the dedicated
	// PACC kernel does not apply when both operands are projective).
	PADDSpec kernel.Spec
	// NT is the concurrent-thread capacity per GPU at this kernel's
	// occupancy (the paper's N_T).
	NT int
	// Hierarchical records whether the hierarchical scatter is active.
	Hierarchical bool
	ReduceOnGPU  bool
	SplitNDim    bool
	Block        BlockConfig

	// FixedBase marks a merged single-window plan over precomputed
	// tables (nil for a standard plan); its window-reduce has no
	// doubling ladder.
	FixedBase *FixedBase
	// Pre carries pre-scattered windows (fixed-base evaluation). When
	// set, the engines consume Pre[j] instead of recoding and scattering
	// window j from the scalars.
	Pre []*ScatterResult

	Assignments []Assignment
}

// BuildPlan schedules an N-point MSM for the cluster. When no window
// size is forced it searches s ∈ [6, 24] — and, unless pinned by the
// options, both bucket-reduce placements — for the cheapest plan under
// the full cost model (per-thread workload, atomics, CPU offload and
// transfers), which is how DistMSM adapts to the platform (§3.1/Figure 3:
// large windows win on one GPU, small windows and CPU reduce on many).
// The search's choice is memoised (see planChoices).
//
// With a health registry attached to the cluster, the plan consults the
// cross-request circuit breaker exactly once (one cooldown tick per
// plan, regardless of the window-size search): quarantined GPUs receive
// no shards and half-open GPUs receive a single probe shard, so a
// device that kept dying or corrupting results in earlier runs costs
// later runs at most one probe instead of a full share of rebalancing.
func BuildPlan(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: plan needs n > 0, got %d", ErrEmptyInput, n)
	}
	return pricedPlan(c, cl, n, opts, admit(cl))
}

// pricedPlan is BuildPlan under an admission the caller already took.
func pricedPlan(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options, adm *gpusim.Admission) (*Plan, error) {
	if opts.WindowSize != 0 {
		return buildPlanFixed(c, cl, n, opts, opts.WindowSize, opts.ReduceOnGPU, adm)
	}
	if cl.Health != nil {
		// The admission shapes the assignments and so the costs: the
		// choice is only reusable for a cluster without a registry.
		return searchPlan(c, cl, n, opts, adm)
	}
	key := newPlanKey(c, cl, n, opts)
	planChoices.Lock()
	ch, ok := planChoices.m[key]
	planChoices.Unlock()
	if ok {
		return buildPlanFixed(c, cl, n, opts, ch.s, ch.gpuReduce, adm)
	}
	p, err := searchPlan(c, cl, n, opts, adm)
	if err != nil {
		return nil, err
	}
	planChoices.Lock()
	if len(planChoices.m) >= maxPlanChoices {
		clear(planChoices.m)
	}
	planChoices.m[key] = planChoice{s: p.S, gpuReduce: p.ReduceOnGPU}
	planChoices.Unlock()
	return p, nil
}

// searchPlan prices every candidate window and reduce placement and
// returns the cheapest plan (the first one on a tie).
func searchPlan(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options, adm *gpusim.Admission) (*Plan, error) {
	var best *Plan
	bestCost := 0.0
	for s := 6; s <= 24; s++ {
		placements := []bool{opts.ReduceOnGPU}
		if !opts.ReduceOnGPU {
			placements = []bool{false, true}
		}
		for _, gpuReduce := range placements {
			p, err := buildPlanFixed(c, cl, n, opts, s, gpuReduce, adm)
			if err != nil {
				return nil, err
			}
			if cost := p.EstimateCost().Total(); best == nil || cost < bestCost {
				best, bestCost = p, cost
			}
		}
	}
	return best, nil
}

// planChoices memoises the priced-plan search: the chosen window and
// reduce placement per planKey. Only the choice is kept — a Plan holds
// the run's cluster copy with its fault injector — and a hit rebuilds
// the plan through buildPlanFixed, which is what the search built, so a
// hit and a miss return the same plan. The map is cleared when it
// reaches maxPlanChoices entries.
var planChoices = struct {
	sync.Mutex
	m map[planKey]planChoice
}{m: map[planKey]planChoice{}}

const maxPlanChoices = 1024

type planChoice struct {
	s         int
	gpuReduce bool
}

// planKey is everything the search's costs depend on: the curve (its
// name fixes the field) and scalar width, n, the device, interconnect
// and host models, the cluster size, and the kernel/scatter/reduce
// options.
type planKey struct {
	curve      string
	scalarBits int
	n          int
	dev        gpusim.Device
	gpus       int
	ic         gpusim.Interconnect
	host       gpusim.CPU
	variant    kernel.Variant
	variantSet bool
	unsigned   bool
	naive      bool
	gpuReduce  bool
	splitNDim  bool
}

func newPlanKey(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options) planKey {
	return planKey{
		curve: c.Name, scalarBits: c.ScalarBits, n: n,
		dev: cl.Dev, gpus: cl.N, ic: cl.IC, host: cl.Host,
		variant: opts.Variant, variantSet: opts.VariantSet, unsigned: opts.Unsigned,
		naive: opts.ForceNaiveScatter, gpuReduce: opts.ReduceOnGPU, splitNDim: opts.SplitNDim,
	}
}

// executedPlan returns the plan RunContext runs for the priced plan.
// A pinned window (Options.WindowSize) and the N-dim split ablation run
// the priced plan itself. Otherwise the same work — curve, N, options,
// reduce placement and admission — runs at hostWindow: the §3.1 search
// prices windows for GPUs with thousands of threads per bucket range,
// while the host sums every bucket of a shard on one goroutine. Both
// plans compute the same MSM.
func executedPlan(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options, priced *Plan, adm *gpusim.Admission) (*Plan, error) {
	if opts.WindowSize != 0 || opts.SplitNDim {
		return priced, nil
	}
	s := hostWindow(n, c.ScalarBits, priced.Signed)
	if s == priced.S {
		return priced, nil
	}
	return buildPlanFixed(c, cl, n, opts, s, priced.ReduceOnGPU, adm)
}

// hostWindow is the window that minimises the host's bucket work for an
// n-point MSM of b-bit scalars: every window costs one accumulation per
// point plus the two additions per bucket of the running-suffix reduce,
// i.e. (⌈b/s⌉+1)·(n+2^s) with signed digits (the carry window and
// 2^(s−1) buckets) and ⌈b/s⌉·(n+2^(s+1)) without.
func hostWindow(n, b int, signed bool) int {
	best, bestCost := 0, 0
	for s := 2; s <= 20; s++ {
		windows, buckets := (b+s-1)/s, 1<<s
		if signed {
			windows, buckets = windows+1, 1<<(s-1)
		}
		if cost := windows * (n + 2*buckets); best == 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// admit consults the cluster's health registry once for the next plan
// (nil without a registry: every device gets its full share).
func admit(cl *gpusim.Cluster) *gpusim.Admission {
	if cl.Health == nil {
		return nil
	}
	a := cl.Health.Admit(cl.N)
	return &a
}

func buildPlanFixed(c *curve.Curve, cl *gpusim.Cluster, n int, opts Options, s int, gpuReduce bool, adm *gpusim.Admission) (*Plan, error) {
	if s < 1 || s > 26 {
		return nil, fmt.Errorf("core: window size %d out of range", s)
	}
	p := &Plan{
		Curve:   c,
		Cluster: cl,
		N:       n,
		S:       s,
		Signed:  !opts.Unsigned,
		Windows: (c.ScalarBits + s - 1) / s,
		Buckets: 1 << s,
		// The hierarchical scatter needs its per-bucket counters in shared
		// memory; above the capacity limit DistMSM falls back to the naive
		// scatter (which is also the faster choice at large s, Figure 11).
		Hierarchical: !opts.ForceNaiveScatter && s <= maxHierarchicalS,
		ReduceOnGPU:  gpuReduce,
		SplitNDim:    opts.SplitNDim,
	}
	if p.Signed {
		p.Windows++ // carry window of the signed recoding
		p.Buckets = 1<<(s-1) + 1
	}
	return p.complete(opts, adm)
}

// complete fills in what every plan shares once its shape (curve, N, S,
// signedness, windows, buckets and scatter/reduce flags) is set: the
// kernel specs of the selected variant, the per-GPU thread capacity,
// the block shape and the health-admitted bucket assignments.
func (p *Plan) complete(opts Options, adm *gpusim.Admission) (*Plan, error) {
	variant := DefaultVariant
	if opts.VariantSet {
		variant = opts.Variant
	}
	var err error
	if p.Spec, err = kernel.BuildSpec(variant); err != nil {
		return nil, err
	}
	if p.PADDSpec, err = kernel.BuildPADDSpec(variant); err != nil {
		return nil, err
	}
	p.NT = p.Cluster.Model().ConcurrentThreads(p.Spec, p.Curve.Fp.Bits())
	p.Block = DefaultBlock()
	p.Assignments = assignBucketsAdmitted(p.Windows, p.Buckets, p.Cluster.N, adm)
	return p, nil
}

func allDevices(n int) []int {
	gpus := make([]int, n)
	for g := range gpus {
		gpus[g] = g
	}
	return gpus
}

// unitRange emits the per-window assignments covering the linear unit
// range [lo, hi) of the windows×buckets space for one GPU. Units are
// whole buckets, so a bucket is never split across shards — which is why
// any partition of the unit space produces bit-identical MSM results.
func unitRange(out []Assignment, lo, hi, buckets, gpu int) []Assignment {
	for lo < hi {
		win := lo / buckets
		bLo := lo % buckets
		bHi := buckets
		if win == hi/buckets {
			bHi = hi % buckets
		}
		if bHi > bLo {
			out = append(out, Assignment{Window: win, GPU: gpu, BucketLo: bLo, BucketHi: bHi})
		}
		lo = (win + 1) * buckets
	}
	return out
}

// splitUnits levels the unit range [lo, hi) across the given GPUs in
// contiguous shares (each GPU's shards stay window-ordered, which the
// scheduler's steal heuristic relies on).
func splitUnits(out []Assignment, lo, hi, buckets int, gpus []int) []Assignment {
	total := hi - lo
	for i, g := range gpus {
		a := lo + total*i/len(gpus)
		b := lo + total*(i+1)/len(gpus)
		out = unitRange(out, a, b, buckets, g)
	}
	return out
}

// assignBuckets partitions the windows×buckets work units into nGPU
// contiguous shares — the paper's flexible distribution ("two GPUs handle
// 2/3 of each window, the third manages the remaining 1/3 of both"),
// realised by launching different thread-block counts per GPU.
func assignBuckets(windows, buckets, nGPU int) []Assignment {
	return splitUnits(nil, 0, windows*buckets, buckets, allDevices(nGPU))
}

// assignBucketsAdmitted applies a health-registry admission to the
// partition over the cluster's nGPU devices: half-open GPUs get one
// probe shard of adm.ProbeBuckets units each (clamped so probes never
// take more than half the work), fully-admitted GPUs level the rest,
// and quarantined GPUs get nothing. A nil admission levels across every
// device. The registry never admits an empty set (it re-admits every
// device as a probe when all are open), so a non-nil admission always
// has somewhere to put the work.
func assignBucketsAdmitted(windows, buckets, nGPU int, adm *gpusim.Admission) []Assignment {
	total := windows * buckets
	if adm == nil {
		return assignBuckets(windows, buckets, nGPU)
	}
	if len(adm.Full) == 0 {
		return splitUnits(nil, 0, total, buckets, adm.Probes)
	}
	var out []Assignment
	off := 0
	if len(adm.Probes) > 0 {
		pb := adm.ProbeBuckets
		if maxPB := total / (2 * len(adm.Probes)); pb > maxPB {
			pb = maxPB
		}
		if pb < 1 {
			pb = 1
		}
		for _, g := range adm.Probes {
			hi := off + pb
			if hi > total {
				hi = total
			}
			out = unitRange(out, off, hi, buckets, g)
			off = hi
		}
	}
	return splitUnits(out, off, total, buckets, adm.Full)
}

// rebalanceTargets picks, for each of n orphaned shards of a lost GPU,
// the survivor that inherits it: always the currently least-loaded
// healthy device (ties to the first in `healthy` order) — the same
// levelling rule assignBuckets applies to the initial §3.2.2 shares,
// replayed online as devices drop out. `load` holds the survivors'
// current queue depths and is not modified.
func rebalanceTargets(n int, load map[int]int, healthy []int) []int {
	out := make([]int, n)
	l := make(map[int]int, len(load))
	for g, v := range load {
		l[g] = v
	}
	for i := range out {
		best, bestLoad := -1, 0
		for _, g := range healthy {
			if best == -1 || l[g] < bestLoad {
				best, bestLoad = g, l[g]
			}
		}
		out[i] = best
		l[best]++
	}
	return out
}

// GPUsOf returns how many distinct GPUs participate in the plan.
func (p *Plan) GPUsOf() int {
	seen := map[int]bool{}
	for _, a := range p.Assignments {
		seen[a.GPU] = true
	}
	return len(seen)
}
