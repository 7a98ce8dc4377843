package kernel

import "sync"

// This file models how register pressure translates to GPU occupancy and
// kernel throughput (§4.2, §5.3.3). Registers are the 32-bit architectural
// registers of contemporary GPUs, so a big integer costs ⌈bits/32⌉ of
// them — 8 for BN254 up to 24 for MNT4753, matching the paper's "8 to 24".

// RegsPerBigInt returns the 32-bit registers needed for one big integer of
// the given field bit-width.
func RegsPerBigInt(fieldBits int) int { return (fieldBits + 31) / 32 }

// AuxRegisters is the fixed per-thread overhead for addresses, indices and
// loop counters, on top of big-integer storage.
const AuxRegisters = 8

// ThreadRegisters returns the registers per thread for a kernel holding
// peakLive big integers of the given width concurrently.
func ThreadRegisters(peakLive, fieldBits int) int {
	return peakLive*RegsPerBigInt(fieldBits) + AuxRegisters
}

// Occupancy returns the fraction of a streaming multiprocessor's maximum
// resident threads achievable with the given per-thread register count,
// register file size and thread ceiling. Allocation is rounded to warp
// granularity (32 threads).
func Occupancy(regsPerThread, regFilePerSM, maxThreadsPerSM int) float64 {
	if regsPerThread <= 0 {
		regsPerThread = 1
	}
	threads := regFilePerSM / regsPerThread
	threads -= threads % 32
	if threads > maxThreadsPerSM {
		threads = maxThreadsPerSM
	}
	if threads <= 0 {
		threads = 32 // the hardware can always hold one warp (spilling to local)
	}
	return float64(threads) / float64(maxThreadsPerSM)
}

// Variant identifies a PADD-kernel optimisation level, in the cumulative
// order of Figure 12.
type Variant int

const (
	// VariantBaseline is the straightforward PADD (Algorithm 1 order).
	VariantBaseline Variant = iota
	// VariantPACC switches bucket accumulation to the dedicated PACC
	// kernel (Algorithm 4): 10 multiplications, lower pressure.
	VariantPACC
	// VariantOptimalOrder additionally reschedules operations with the
	// brute-force optimal execution sequence (§4.2.1).
	VariantOptimalOrder
	// VariantSpill additionally spills selected big integers to shared
	// memory (§4.2.2).
	VariantSpill
	// VariantTensorCore additionally runs the m×n multiplication of
	// Montgomery reduction on tensor cores (§4.3), without compaction.
	VariantTensorCore
	// VariantTCCompact additionally compacts tensor-core outputs on the
	// fly within registers (§4.3).
	VariantTCCompact
)

var variantNames = [...]string{
	"Baseline", "PADD→PACC", "Optimal Exec Order", "Explicit Spill",
	"MontMul with TC", "On-the-fly Compact",
}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return "Unknown"
}

// Variants lists all optimisation levels in Figure 12 order.
func Variants() []Variant {
	return []Variant{VariantBaseline, VariantPACC, VariantOptimalOrder,
		VariantSpill, VariantTensorCore, VariantTCCompact}
}

// Spec describes one accumulation-kernel configuration: everything the
// GPU cost model needs to price a PADD/PACC-type operation.
type Spec struct {
	Variant Variant
	// Muls is the modular multiplications per point operation.
	Muls int
	// PeakLive is the peak concurrently-live big integers in registers.
	PeakLive int
	// SharedInts is the big integers parked in shared memory per thread.
	SharedInts int
	// SharedTransfers is the register<->shared-memory transfers per op.
	SharedTransfers int
	// TensorCore marks the m×n multiplication as running on tensor cores.
	TensorCore bool
	// TCCompacted marks on-the-fly register compaction of TC outputs.
	TCCompacted bool
}

// specMemo holds one variant's derived Spec. The derivations are pure
// functions of the variant (the OptimalSchedule search and PlanSpills
// over two fixed graphs), yet every plan — and every window size the
// planner probes — asks for them again, so they are computed once.
type specMemo struct {
	once sync.Once
	spec Spec
	err  error
}

var accSpecs, paddSpecs [len(variantNames)]specMemo

// memoSpec returns build(v), computed at most once per named variant.
// Variants outside the enum are derived fresh: they are a caller bug,
// not worth unbounded cache keys.
func memoSpec(memos *[len(variantNames)]specMemo, v Variant, build func(Variant) (Spec, error)) (Spec, error) {
	if v < 0 || int(v) >= len(memos) {
		return build(v)
	}
	m := &memos[v]
	m.once.Do(func() { m.spec, m.err = build(v) })
	return m.spec, m.err
}

// BuildSpec derives the kernel Spec for an optimisation level from the
// dataflow model (the numbers are computed, not hard-coded: the
// straightforward orders evaluate to 9 and 11 live integers as in the
// paper, and the search/spill passes produce the improved figures).
// The result is memoised per variant.
func BuildSpec(v Variant) (Spec, error) { return memoSpec(&accSpecs, v, buildSpec) }

func buildSpec(v Variant) (Spec, error) {
	padd, pacc := PADDGraph(), PACCGraph()
	spec := Spec{Variant: v}
	switch {
	case v == VariantBaseline:
		spec.Muls = padd.MulCount()
		spec.PeakLive = PeakPressure(padd, StraightforwardOrder(padd))
		return spec, nil
	case v == VariantPACC:
		spec.Muls = pacc.MulCount()
		spec.PeakLive = PeakPressure(pacc, StraightforwardOrder(pacc))
		return spec, nil
	}
	sched, err := OptimalSchedule(pacc)
	if err != nil {
		return Spec{}, err
	}
	spec.Muls = pacc.MulCount()
	spec.PeakLive = sched.Peak
	if v == VariantOptimalOrder {
		return spec, nil
	}
	plan, err := PlanSpills(pacc, sched.Order, 5)
	if err != nil {
		return Spec{}, err
	}
	spec.PeakLive = plan.PeakRegisters
	spec.SharedInts = plan.PeakShared
	spec.SharedTransfers = plan.Transfers
	if v == VariantSpill {
		return spec, nil
	}
	spec.TensorCore = true
	spec.TCCompacted = v == VariantTCCompact
	return spec, nil
}

// BuildPADDSpec derives the *general* point-addition kernel (merging two
// partial results) at the given optimisation level. The PADD→PACC switch
// does not apply here — both operands are projective — so bucket-reduce
// style work only benefits from the scheduling, spilling and tensor-core
// optimisations. This asymmetry is why the kernel optimisations lose
// impact as GPUs are added under the single-GPU algorithm (Figure 10):
// the un-shrunk bucket-reduce is PADD-bound. Memoised like BuildSpec.
func BuildPADDSpec(v Variant) (Spec, error) { return memoSpec(&paddSpecs, v, buildPADDSpec) }

func buildPADDSpec(v Variant) (Spec, error) {
	padd := PADDGraph()
	spec := Spec{Variant: v, Muls: padd.MulCount()}
	if v <= VariantPACC {
		spec.PeakLive = PeakPressure(padd, StraightforwardOrder(padd))
		return spec, nil
	}
	sched, err := OptimalSchedule(padd)
	if err != nil {
		return Spec{}, err
	}
	spec.PeakLive = sched.Peak
	if v == VariantOptimalOrder {
		return spec, nil
	}
	plan, err := PlanSpills(padd, sched.Order, 5)
	if err != nil {
		return Spec{}, err
	}
	spec.PeakLive = plan.PeakRegisters
	spec.SharedInts = plan.PeakShared
	spec.SharedTransfers = plan.Transfers
	if v == VariantSpill {
		return spec, nil
	}
	spec.TensorCore = true
	spec.TCCompacted = v == VariantTCCompact
	return spec, nil
}
