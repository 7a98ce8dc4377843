package core

import "fmt"

// BlockConfig describes the thread-block geometry of the scatter kernels.
type BlockConfig struct {
	// Threads per thread block.
	Threads int
	// K is the coefficients each thread caches in registers per pass
	// (Algorithm 3); a block locally scatters Threads×K points.
	K int
}

// DefaultBlock is the configuration the paper quotes: 1024 threads with
// 128 KB of shared memory for point-id storage scatter 64K points locally.
func DefaultBlock() BlockConfig { return BlockConfig{Threads: 1024, K: 64} }

// PointsPerBlock returns the points one block scatters per pass.
func (b BlockConfig) PointsPerBlock() int { return b.Threads * b.K }

// ScatterStats counts the simulated-hardware events of a scatter.
type ScatterStats struct {
	GlobalAtomics int // atomic ops on device-memory bucket descriptors
	SharedAtomics int // atomic ops on shared-memory counters/offsets
	Passes        int // thread-block passes (shared-memory refills)
}

// ScatterResult is a window's bucket assignment: Buckets[b] lists signed
// point references (ref = idx+1, negative when the point enters negated),
// exactly as the GPU's bucket arrays would after the scatter kernels.
type ScatterResult struct {
	Buckets [][]int32
	Stats   ScatterStats
}

// NaiveScatter is the baseline bucket scatter: every point issues one
// global atomic to allocate a slot in its bucket (§3.2.1's strawman).
func NaiveScatter(digits []int32, nBuckets int) (*ScatterResult, error) {
	return scatter(digits, nBuckets, 0)
}

// HierarchicalScatter is the three-level bucket scatter of Algorithm 3:
// each thread block locally scatters Threads×K points through shared
// memory (per-point shared atomics for counting and placement, a parallel
// prefix sum for exact per-bucket offsets) and then commits each
// non-empty local bucket to global memory with a single global atomic.
// The produced buckets are identical to NaiveScatter's, in the same
// order — only the counted atomic traffic differs.
func HierarchicalScatter(digits []int32, nBuckets int, block BlockConfig) (*ScatterResult, error) {
	if block.Threads <= 0 || block.K <= 0 {
		return nil, fmt.Errorf("core: invalid block config %+v", block)
	}
	return scatter(digits, nBuckets, block.PointsPerBlock())
}

// scatter is the one bucket-scatter body behind both kernels: a stable
// counting sort of the window's signed point references (ref = idx+1,
// negated when the digit is negative) into one flat backing array, with
// Buckets[b] a sub-slice of it holding bucket b's references in point
// order. per > 0 counts the hierarchical scatter's events over blocks of
// per points: one pass per block, two shared atomics (count and place)
// per reference, one global atomic per non-empty local bucket. per == 0
// counts the naive scatter's one global atomic per reference.
func scatter(digits []int32, nBuckets int, per int) (*ScatterResult, error) {
	if nBuckets < 2 {
		return nil, fmt.Errorf("core: scatter needs at least 2 buckets, got %d", nBuckets)
	}
	// offset[b] counts bucket b's references, then becomes its next free
	// slot. seen[b] is the last pass that touched bucket b (hierarchical).
	offset := make([]int32, nBuckets)
	var seen []int32
	if per > 0 {
		seen = make([]int32, nBuckets)
	}
	var stats ScatterStats
	refs := 0
	step := per
	if per == 0 {
		step = len(digits) // one block, no passes counted
	}
	for lo := 0; lo < len(digits); lo += step {
		pass := int32(lo/step + 1)
		for _, d := range digits[lo:min(lo+step, len(digits))] {
			if d == 0 {
				continue
			}
			b := int(d)
			if b < 0 {
				b = -b
			}
			if b >= nBuckets {
				return nil, fmt.Errorf("core: digit %d out of bucket range %d", d, nBuckets)
			}
			offset[b]++
			refs++
			if seen != nil && seen[b] != pass {
				seen[b] = pass
				stats.GlobalAtomics++
			}
		}
	}
	if per > 0 {
		stats.Passes = (len(digits) + per - 1) / per
		stats.SharedAtomics = 2 * refs
	} else {
		stats.GlobalAtomics = refs
	}

	res := &ScatterResult{Buckets: make([][]int32, nBuckets), Stats: stats}
	arena := make([]int32, refs)
	off := int32(0)
	for b, n := range offset {
		if n > 0 {
			res.Buckets[b] = arena[off : off+n : off+n]
		}
		offset[b] = off
		off += n
	}
	for i, d := range digits {
		if d == 0 {
			continue
		}
		ref := int32(i + 1)
		if d < 0 {
			d, ref = -d, -ref
		}
		arena[offset[d]] = ref
		offset[d]++
	}
	return res, nil
}

// SharedBytesNeeded returns the shared memory one block needs for the
// local scatter: 2 bytes per point id (reg_idx‖tid fits 16 bits) plus a
// 4-byte counter per bucket. §5.3.2 notes execution fails when this
// exceeds the device's shared memory (s > 14 on the A100).
func SharedBytesNeeded(block BlockConfig, nBuckets int) int {
	return 2*block.PointsPerBlock() + 4*nBuckets
}
