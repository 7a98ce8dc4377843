package gpusim

import (
	"math"

	"distmsm/internal/kernel"
)

// Calibration constants of the cost model. They are fitted once against
// the paper's single-GPU A100 numbers (Table 3) and then held fixed for
// every experiment; see EXPERIMENTS.md for the resulting paper-vs-model
// comparison.
const (
	// GlobalAtomicNs is the uncontended global-memory atomic cost.
	GlobalAtomicNs = 4.0
	// SharedAtomicNs is the uncontended shared-memory atomic cost.
	SharedAtomicNs = 0.7
	// ContentionFactor scales the serialisation penalty with the square
	// root of the concurrent writers per address (conflicting updates
	// serialise within an SM but coalesce across the chip, so the
	// effective penalty saturates; calibrated against Figure 11's 6.7x
	// hierarchical advantage at s=11).
	ContentionFactor = 0.16
	// TCTileOverhead accounts for zero padding in Toeplitz tiles.
	TCTileOverhead = 1.3
	// TCOffloadEfficiency is the fraction of the m×n CUDA-core work that
	// the tensor-core offload actually removes (fragment management and
	// operand marshalling stay on CUDA cores).
	TCOffloadEfficiency = 0.15
	// TCFragmentWriteFraction is the fraction of the expanded (4×)
	// fragment bytes that actually cross device memory on the naive
	// compaction path.
	TCFragmentWriteFraction = 0.04
	// TCExtraRegsPerWord is the extra 32-bit registers per thread the
	// tensor-core path needs for output fragments, per big-integer word.
	TCExtraRegsPerWord = 1.0
	// OccupancySaturation is the occupancy at which arithmetic-bound
	// kernels reach peak issue rate; beyond it extra resident warps add
	// nothing (latency is already hidden).
	OccupancySaturation = 0.25
	// SpillTransferOpFactor prices one register<->shared-memory big-int
	// transfer in int32 ops per word (shared memory is on-chip and wide).
	SpillTransferOpFactor = 0.125
	// CompilerSpillThresholdRegs is the per-thread register budget beyond
	// which the compiler spills to device memory (§4.2.2's criticised
	// mechanism); the excess words take SpillRoundTrips memory trips per
	// point operation. This is what makes high-pressure baseline kernels
	// partially memory-bound (Figure 9's device sensitivity).
	CompilerSpillThresholdRegs = 64
	// SpillRoundTrips is the average device-memory round trips per
	// compiler-spilled register word per point operation.
	SpillRoundTrips = 2
)

// Model prices GPU work for one device.
type Model struct {
	Dev Device
}

// MulIntOps returns the CUDA-core int32 multiply-add operations of one
// Montgomery modular multiplication at the given field width (CIOS on
// 32-bit words: two w×w passes plus carry handling).
func MulIntOps(fieldBits int) float64 {
	w := float64((fieldBits + 31) / 32)
	return 2*w*w + 4*w
}

// ecOpWork splits one EC point operation (PADD/PACC per spec) into
// CUDA-core int32 ops, tensor-core int8 ops, and fragment bytes.
func (m Model) ecOpWork(spec kernel.Spec, fieldBits int) (cudaOps, tcOps, fragBytes float64) {
	w := float64((fieldBits + 31) / 32)
	mulCUDA := MulIntOps(fieldBits)
	adds := 8 * w // the formula's additions/subtractions
	if spec.TensorCore && m.Dev.TensorInt8TOPS > 0 {
		// The m×n half of each reduction moves to tensor cores: part of
		// the w² reduction work leaves the CUDA cores (the rest is
		// fragment management), re-expressed as int8 MACs (16 per
		// int32 MAC) on the tensor units.
		cudaPerMul := mulCUDA - w*w*TCOffloadEfficiency
		tcPerMul := 16 * w * w * TCTileOverhead
		cudaOps = float64(spec.Muls)*cudaPerMul + adds
		tcOps = float64(spec.Muls) * tcPerMul
		if !spec.TCCompacted {
			// Expanded uint32 fragments take a memory round trip: the
			// paper's 4× traffic of the dense 2·fieldBits product.
			fragBytes = float64(spec.Muls) * 4 * (2 * float64(fieldBits) / 8) * TCFragmentWriteFraction
		}
	} else {
		cudaOps = float64(spec.Muls)*mulCUDA + adds
	}
	// Explicit spilling moves big integers through shared memory; the
	// paths are on-chip and wide, so the transfers are nearly free.
	cudaOps += float64(spec.SharedTransfers) * w * SpillTransferOpFactor
	// Register demand beyond the compiler's budget spills to device
	// memory (the paper's §4.2.2 motivation): price the round trips.
	if regs := m.ThreadRegs(spec, fieldBits); regs > CompilerSpillThresholdRegs {
		fragBytes += float64(regs-CompilerSpillThresholdRegs) * 4 * SpillRoundTrips
	}
	return cudaOps, tcOps, fragBytes
}

// throughputFactor converts occupancy to achieved issue rate: arithmetic
// kernels saturate the pipelines at OccupancySaturation; below that,
// throughput falls proportionally (not enough warps to hide latency).
func throughputFactor(occ float64) float64 {
	f := occ / OccupancySaturation
	if f > 1 {
		return 1
	}
	return f
}

// ThreadRegs returns the 32-bit registers per thread for the kernel.
func (m Model) ThreadRegs(spec kernel.Spec, fieldBits int) int {
	regs := kernel.ThreadRegisters(spec.PeakLive, fieldBits)
	if spec.TensorCore && m.Dev.TensorInt8TOPS > 0 {
		regs += int(TCExtraRegsPerWord * float64((fieldBits+31)/32))
	}
	return regs
}

// Occupancy returns the kernel's achieved occupancy on this device.
func (m Model) Occupancy(spec kernel.Spec, fieldBits int) float64 {
	return kernel.Occupancy(m.ThreadRegs(spec, fieldBits), m.Dev.RegFilePerSM, m.Dev.MaxThreadsPerSM)
}

// ConcurrentThreads returns resident threads across the device at the
// kernel's occupancy.
func (m Model) ConcurrentThreads(spec kernel.Spec, fieldBits int) int {
	t := int(float64(m.Dev.MaxThreads()) * m.Occupancy(spec, fieldBits))
	if t < 32 {
		t = 32
	}
	return t
}

// ECOpSeconds returns the wall time for totalOps EC point operations of
// the given kernel on this device. CUDA cores and tensor cores overlap
// (the paper: "the total arithmetic throughput is essentially the sum of
// their throughput"), so compute time is the maximum of the two streams;
// fragment traffic adds a bandwidth term.
func (m Model) ECOpSeconds(spec kernel.Spec, fieldBits int, totalOps float64) float64 {
	if totalOps <= 0 {
		return 0
	}
	cudaOps, tcOps, fragBytes := m.ecOpWork(spec, fieldBits)
	occ := m.Occupancy(spec, fieldBits)
	eff := m.Dev.Efficiency * throughputFactor(occ)
	cudaTime := totalOps * cudaOps / (m.Dev.Int32TOPS * 1e12 * eff)
	var tcTime float64
	if tcOps > 0 {
		tcTime = totalOps * tcOps / (m.Dev.TensorInt8TOPS * 1e12 * eff)
	}
	compute := cudaTime
	if tcTime > compute {
		compute = tcTime
	}
	return compute + m.MemSeconds(totalOps*fragBytes)
}

// GlobalAtomicSeconds prices totalOps global atomic RMWs with on average
// `contention` concurrent writers per address. The cost per operation
// grows with the square root of contention (saturating serialisation).
func (m Model) GlobalAtomicSeconds(totalOps, contention float64) float64 {
	if contention < 1 {
		contention = 1
	}
	perOp := GlobalAtomicNs * (1 + ContentionFactor*(math.Sqrt(contention)-1)) * 1e-9
	// Uncontended atomics are throughput-limited across the device, not
	// latency-limited per thread: normalise by SM parallelism.
	return totalOps * perOp / float64(m.Dev.SMs)
}

// SharedAtomicSeconds prices shared-memory atomics within thread blocks.
func (m Model) SharedAtomicSeconds(totalOps, contention float64) float64 {
	if contention < 1 {
		contention = 1
	}
	perOp := SharedAtomicNs * (1 + ContentionFactor*(math.Sqrt(contention)-1)) * 1e-9
	return totalOps * perOp / float64(m.Dev.SMs)
}

// MemSeconds prices bytes of device-memory traffic.
func (m Model) MemSeconds(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / (m.Dev.MemBandwidthGBs * 1e9)
}

// HostTransferSeconds prices a host<->device transfer.
func HostTransferSeconds(bytes float64, ic Interconnect) float64 {
	if bytes <= 0 {
		return 0
	}
	return ic.HostLatency + bytes/(ic.HostLinkGBs*1e9)
}

// CPUECOpSeconds prices EC point operations on the host CPU, relative to
// a reference A100 (§3.2.3's "a GPU could be up to 128× faster").
func CPUECOpSeconds(cpu CPU, spec kernel.Spec, fieldBits int, totalOps float64) float64 {
	if totalOps <= 0 {
		return 0
	}
	ref := Model{Dev: A100()}
	cudaOps, _, _ := ref.ecOpWork(kernel.Spec{Variant: spec.Variant, Muls: spec.Muls, PeakLive: spec.PeakLive}, fieldBits)
	throughput := cpu.ECThroughputRatio * ref.Dev.Int32TOPS * 1e12 * ref.Dev.Efficiency
	return totalOps * cudaOps / throughput
}
