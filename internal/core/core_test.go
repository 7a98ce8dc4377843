package core

import (
	"context"
	"errors"
	"sort"
	"testing"

	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/kernel"
)

func mustCurve(t testing.TB, name string) *curve.Curve {
	t.Helper()
	c, err := curve.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cluster(t testing.TB, n int) *gpusim.Cluster {
	t.Helper()
	cl, err := gpusim.NewCluster(gpusim.A100(), n)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// --- §3.1 workload model ---

func TestPerThreadWorkFigure3Crossover(t *testing.T) {
	// Figure 3 with N=2^26, N_T=2^16, λ=253: the optimal window size is
	// large (≈20) on a single GPU and shrinks as GPUs are added (the
	// paper reports 11 at 16 GPUs; this model's raw §3.1 formula bottoms
	// out at 16 there — see EXPERIMENTS.md — and the full cost-based
	// planner picks 11 for the sizes where scatter and reduce dominate).
	s1 := OptimalWindow(1<<26, 253, 1, 1<<16, 6, 24)
	s16 := OptimalWindow(1<<26, 253, 16, 1<<16, 6, 24)
	s32 := OptimalWindow(1<<26, 253, 32, 1<<16, 6, 24)
	if s1 < 18 || s1 > 22 {
		t.Errorf("1-GPU optimal s = %d, want ~20", s1)
	}
	if s16 < 8 || s16 > 16 {
		t.Errorf("16-GPU optimal s = %d, want small (paper: 11)", s16)
	}
	if s16 >= s1 || s32 > s16 {
		t.Errorf("optimal s must shrink with more GPUs: s1=%d s16=%d s32=%d", s1, s16, s32)
	}
}

func TestPerThreadWorkMonotonicInGPUs(t *testing.T) {
	// At a fixed window size, more GPUs never increases per-thread work.
	for _, s := range []int{8, 11, 16, 20} {
		prev := float64(1 << 62)
		for _, g := range []int{1, 2, 4, 8, 16, 32} {
			w := PerThreadWork(WorkloadParams{N: 1 << 26, ScalarBits: 253, S: s, NGPU: g, NT: 1 << 16})
			if w > prev*1.001 {
				t.Errorf("s=%d: work grew from %d GPUs", s, g/2)
			}
			prev = w
		}
	}
}

func TestPerThreadWorkBucketSplitRegime(t *testing.T) {
	// With more GPUs than windows the bucket-split formula kicks in and
	// keeps scaling.
	p := WorkloadParams{N: 1 << 26, ScalarBits: 253, S: 16, NT: 1 << 16}
	p.NGPU = 16 // = windows
	w16 := PerThreadWork(p)
	p.NGPU = 64 // 4 GPUs per window
	w64 := PerThreadWork(p)
	if w64 >= w16 {
		t.Errorf("bucket splitting should reduce work: %v -> %v", w16, w64)
	}
}

// --- scatter ---

func scatterDigits() []int32 {
	digits := make([]int32, 5000)
	for i := range digits {
		switch i % 5 {
		case 0:
			digits[i] = 0 // skipped
		case 1:
			digits[i] = int32(i%31 + 1)
		case 2:
			digits[i] = -int32(i%31 + 1) // signed
		case 3:
			digits[i] = 31
		default:
			digits[i] = 1
		}
	}
	return digits
}

func normalize(buckets [][]int32) [][]int32 {
	out := make([][]int32, len(buckets))
	for i, b := range buckets {
		out[i] = append([]int32(nil), b...)
		sort.Slice(out[i], func(a, c int) bool { return out[i][a] < out[i][c] })
	}
	return out
}

func TestScatterEquivalence(t *testing.T) {
	digits := scatterDigits()
	naive, err := NaiveScatter(digits, 32)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := HierarchicalScatter(digits, 32, BlockConfig{Threads: 64, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	nb, hb := normalize(naive.Buckets), normalize(hier.Buckets)
	for b := range nb {
		if len(nb[b]) != len(hb[b]) {
			t.Fatalf("bucket %d size differs", b)
		}
		for i := range nb[b] {
			if nb[b][i] != hb[b][i] {
				t.Fatalf("bucket %d contents differ", b)
			}
		}
	}
	// Bucket 0 must stay empty (zero digits are skipped).
	if len(nb[0]) != 0 {
		t.Fatal("bucket 0 should be empty")
	}
}

func TestHierarchicalScatterReducesGlobalAtomics(t *testing.T) {
	digits := scatterDigits()
	naive, _ := NaiveScatter(digits, 32)
	hier, _ := HierarchicalScatter(digits, 32, BlockConfig{Threads: 64, K: 16})
	if hier.Stats.GlobalAtomics >= naive.Stats.GlobalAtomics {
		t.Errorf("hierarchical global atomics %d >= naive %d",
			hier.Stats.GlobalAtomics, naive.Stats.GlobalAtomics)
	}
	// With 1024 points per block and 32 buckets the reduction approaches
	// the block-size factor.
	ratio := float64(naive.Stats.GlobalAtomics) / float64(hier.Stats.GlobalAtomics)
	if ratio < 10 {
		t.Errorf("atomic reduction only %.1fx", ratio)
	}
	if hier.Stats.SharedAtomics == 0 || hier.Stats.Passes == 0 {
		t.Error("hierarchical stats incomplete")
	}
}

func TestScatterErrors(t *testing.T) {
	if _, err := NaiveScatter([]int32{1}, 1); err == nil {
		t.Error("want error for 1 bucket")
	}
	if _, err := NaiveScatter([]int32{99}, 32); err == nil {
		t.Error("want error for out-of-range digit")
	}
	if _, err := HierarchicalScatter([]int32{1}, 32, BlockConfig{}); err == nil {
		t.Error("want error for zero block")
	}
	if _, err := HierarchicalScatter([]int32{99}, 32, DefaultBlock()); err == nil {
		t.Error("want error for out-of-range digit")
	}
}

func TestSharedBytesNeeded(t *testing.T) {
	b := DefaultBlock()
	if got := SharedBytesNeeded(b, 1<<10); got != 2*64*1024+4*1024 {
		t.Errorf("SharedBytesNeeded = %d", got)
	}
	// The s=14 limit of §5.3.2: byte needs exceed A100 shared memory
	// above it.
	a100 := gpusim.A100()
	if SharedBytesNeeded(b, 1<<14) > a100.SharedMemPerSM {
		t.Log("s=14 at the boundary (expected)")
	}
	if SharedBytesNeeded(b, 1<<17) <= a100.SharedMemPerSM {
		t.Error("s=17 should exceed shared memory")
	}
}

// --- plan ---

func TestBuildPlanDefaults(t *testing.T) {
	c := mustCurve(t, "BN254")
	p, err := BuildPlan(c, cluster(t, 16), 1<<22, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.S > 14 || !p.Hierarchical {
		t.Errorf("16-GPU default plan: s=%d hier=%v; want small window + hierarchical", p.S, p.Hierarchical)
	}
	if !p.Signed {
		t.Error("DistMSM uses signed digits by default")
	}
	if p.Spec.Variant != DefaultVariant {
		t.Errorf("default kernel variant = %v", p.Spec.Variant)
	}
	// Single-GPU plan prefers a big window and the naive scatter.
	p1, err := BuildPlan(c, cluster(t, 1), 1<<26, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.S <= 14 {
		t.Errorf("1-GPU default s = %d, want > 14", p1.S)
	}
	if p1.Hierarchical {
		t.Error("large-window plan cannot use the hierarchical scatter (shared memory)")
	}
	// The multi-GPU window is never larger than the single-GPU one.
	p32, err := BuildPlan(c, cluster(t, 32), 1<<26, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p32.S > p1.S {
		t.Errorf("32-GPU s=%d > 1-GPU s=%d", p32.S, p1.S)
	}
}

func TestBuildPlanErrors(t *testing.T) {
	c := mustCurve(t, "BN254")
	if _, err := BuildPlan(c, cluster(t, 1), 0, Options{}); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := BuildPlan(c, cluster(t, 1), 100, Options{WindowSize: 30}); err == nil {
		t.Error("want error for oversized window")
	}
}

func TestAssignBucketsPartition(t *testing.T) {
	for _, tc := range []struct{ windows, buckets, gpus int }{
		{23, 1 << 10, 1}, {23, 1 << 10, 8}, {2, 1 << 10, 3},
		{16, 64, 32}, {5, 7, 4}, {1, 10, 16},
	} {
		as := assignBuckets(tc.windows, tc.buckets, tc.gpus)
		covered := map[[2]int]int{}
		for _, a := range as {
			if a.BucketLo >= a.BucketHi || a.BucketHi > tc.buckets {
				t.Fatalf("%+v: bad range %+v", tc, a)
			}
			if a.GPU < 0 || a.GPU >= tc.gpus || a.Window < 0 || a.Window >= tc.windows {
				t.Fatalf("%+v: bad ids %+v", tc, a)
			}
			for b := a.BucketLo; b < a.BucketHi; b++ {
				covered[[2]int{a.Window, b}]++
			}
		}
		if len(covered) != tc.windows*tc.buckets {
			t.Fatalf("%+v: covered %d of %d units", tc, len(covered), tc.windows*tc.buckets)
		}
		for k, n := range covered {
			if n != 1 {
				t.Fatalf("%+v: unit %v covered %d times", tc, k, n)
			}
		}
		// Balance: no GPU holds more than ~2x the average.
		perGPU := map[int]int{}
		for _, a := range as {
			perGPU[a.GPU] += a.BucketHi - a.BucketLo
		}
		avg := float64(tc.windows*tc.buckets) / float64(tc.gpus)
		for g, n := range perGPU {
			if float64(n) > 2*avg+1 {
				t.Fatalf("%+v: GPU %d overloaded (%d vs avg %.1f)", tc, g, n, avg)
			}
		}
	}
}

// --- functional correctness ---

func TestRunMatchesReference(t *testing.T) {
	for _, name := range []string{"BN254", "BLS12-381"} {
		c := mustCurve(t, name)
		n := 96
		points := c.SamplePoints(n, 21)
		scalars := c.SampleScalars(n, 22)
		want := c.MSMReference(points, scalars)
		for _, tc := range []struct {
			label string
			gpus  int
			opts  Options
		}{
			{"default-1gpu", 1, Options{WindowSize: 8}},
			{"default-8gpu", 8, Options{WindowSize: 8}},
			{"32gpu-bucket-split", 32, Options{WindowSize: 8}},
			{"unsigned", 4, Options{WindowSize: 8, Unsigned: true}},
			{"naive-scatter", 4, Options{WindowSize: 8, ForceNaiveScatter: true}},
			{"gpu-reduce", 4, Options{WindowSize: 8, ReduceOnGPU: true}},
			{"big-window-naive", 1, Options{WindowSize: 16}},
			{"auto-window", 16, Options{}},
			{"tiny-window", 2, Options{WindowSize: 2}},
			{"baseline-kernel", 2, Options{WindowSize: 8, Variant: kernel.VariantBaseline, VariantSet: true}},
		} {
			res, err := RunContext(context.Background(), c, cluster(t, tc.gpus), points, scalars, tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.label, err)
			}
			if !c.EqualXYZZ(res.Point, want) {
				t.Fatalf("%s/%s: wrong MSM result", name, tc.label)
			}
			if res.Cost.Total() <= 0 {
				t.Fatalf("%s/%s: non-positive modeled cost", name, tc.label)
			}
			if res.Stats.PACCOps == 0 {
				t.Fatalf("%s/%s: no accumulate ops recorded", name, tc.label)
			}
		}
	}
}

func TestRunEdgeCases(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 4)
	// empty inputs are rejected with the typed sentinel
	if _, err := RunContext(context.Background(), c, cl, nil, nil, Options{}); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty MSM: want ErrEmptyInput, got %v", err)
	}
	// mismatch
	if _, err := RunContext(context.Background(), c, cl, c.SamplePoints(2, 1), c.SampleScalars(1, 1), Options{}); err == nil {
		t.Fatal("want length mismatch error")
	}
	// single element
	pts := c.SamplePoints(1, 2)
	res, err := RunContext(context.Background(), c, cl, pts, c.SampleScalars(1, 3), Options{WindowSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := c.MSMReference(pts, c.SampleScalars(1, 3))
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("single-element MSM wrong")
	}
}

func TestRunMNT4753(t *testing.T) {
	c := mustCurve(t, "MNT4753")
	n := 24
	points := c.SamplePoints(n, 31)
	scalars := c.SampleScalars(n, 32)
	want := c.MSMReference(points, scalars)
	res, err := RunContext(context.Background(), c, cluster(t, 8), points, scalars, Options{WindowSize: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("753-bit DistMSM result wrong")
	}
}

// --- cost model shapes ---

func TestAnalyticScaling(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	n := 1 << 26
	var prev float64
	// Near-linear scaling to 32 GPUs (Figure 8: 31x at N=2^28).
	t1, _ := Analytic(c, cluster(t, 1), n, Options{})
	for _, g := range []int{1, 4, 8, 16, 32} {
		res, err := Analytic(c, cluster(t, g), n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Cost.Total()
		if prev != 0 && tot >= prev {
			t.Errorf("no speedup from %d GPUs (%.4g -> %.4g)", g, prev, tot)
		}
		prev = tot
		if g == 32 {
			sp := t1.Cost.Total() / tot
			if sp < 16 || sp > 34 {
				t.Errorf("32-GPU speedup %.1fx outside the near-linear regime", sp)
			}
		}
	}
}

func TestAnalyticGrowsWithN(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 8)
	var prev float64
	for _, n := range []int{1 << 22, 1 << 24, 1 << 26, 1 << 28} {
		res, err := Analytic(c, cl, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Total() <= prev {
			t.Errorf("cost must grow with N at n=%d", n)
		}
		prev = res.Cost.Total()
	}
}

func TestHierarchicalScatterCostAdvantage(t *testing.T) {
	// Figure 11: at the multi-GPU window sizes (s ≈ 9–11) the
	// hierarchical scatter is much cheaper than the naive one; at large
	// single-GPU windows the naive wins.
	c := mustCurve(t, "BLS12-381")
	cl := cluster(t, 16)
	small := Options{WindowSize: 11}
	smallNaive := Options{WindowSize: 11, ForceNaiveScatter: true}
	h, _ := Analytic(c, cl, 1<<26, small)
	nv, _ := Analytic(c, cl, 1<<26, smallNaive)
	if h.Cost.Scatter >= nv.Cost.Scatter {
		t.Errorf("hierarchical scatter (%.4g) not cheaper than naive (%.4g) at s=11",
			h.Cost.Scatter, nv.Cost.Scatter)
	}
	ratio := nv.Cost.Scatter / h.Cost.Scatter
	if ratio < 2 {
		t.Errorf("s=11 scatter advantage only %.1fx; paper reports ~6.7x", ratio)
	}
	// Smaller windows widen the gap (paper: 18.3x at s=9).
	h9, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 9})
	nv9, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 9, ForceNaiveScatter: true})
	if nv9.Cost.Scatter/h9.Cost.Scatter <= ratio {
		t.Error("scatter advantage should grow as s shrinks")
	}
}

func TestCPUReduceBeatsGPUReduceOnManyGPUs(t *testing.T) {
	// §3.2.3: with small windows on many GPUs, offloading bucket-reduce
	// to the CPU (overlapped) beats the GPU's doubling ladder.
	c := mustCurve(t, "BN254")
	cl := cluster(t, 16)
	cpuR, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 11})
	gpuR, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 11, ReduceOnGPU: true})
	if cpuR.Cost.Total() >= gpuR.Cost.Total() {
		t.Errorf("CPU reduce (%.4g) should beat GPU reduce (%.4g)",
			cpuR.Cost.Total(), gpuR.Cost.Total())
	}
}

func TestSplitNDimCostsMoreCPU(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 32)
	bucketSplit, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 11})
	nSplit, _ := Analytic(c, cl, 1<<26, Options{WindowSize: 11, SplitNDim: true})
	if nSplit.Cost.BucketReduce <= bucketSplit.Cost.BucketReduce {
		t.Error("N-dim splitting should increase the host reduce/merge burden")
	}
}

func TestKernelVariantImprovesCost(t *testing.T) {
	c := mustCurve(t, "MNT4753")
	cl := cluster(t, 8)
	base, _ := Analytic(c, cl, 1<<24, Options{Variant: kernel.VariantBaseline, VariantSet: true})
	full, _ := Analytic(c, cl, 1<<24, Options{})
	if full.Cost.BucketSum >= base.Cost.BucketSum {
		t.Error("full kernel pipeline should beat the baseline PADD kernel")
	}
}

func TestEstimatePipeline(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 8)
	plan, err := BuildPlan(c, cl, 1<<24, Options{WindowSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ReduceOnGPU {
		t.Fatal("test expects the CPU-reduce plan")
	}
	single := plan.EstimateCost().Total()
	const k = 8
	pipe, err := plan.EstimatePipeline(k)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelining k MSMs is cheaper than k independent ones but no
	// cheaper than k times the bottleneck stage.
	if pipe.Total() >= float64(k)*singleUnoverlapped(plan) {
		t.Errorf("pipeline (%.4g) not cheaper than %d serial MSMs", pipe.Total(), k)
	}
	if pipe.Total() < float64(k)*single*0.5 {
		t.Errorf("pipeline implausibly cheap: %.4g vs single %.4g", pipe.Total(), single)
	}
	// count=1 degenerates to the single estimate.
	one, err := plan.EstimatePipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Total() != plan.EstimateCost().Total() {
		t.Error("count=1 should equal the single estimate")
	}
	if _, err := plan.EstimatePipeline(0); err == nil {
		t.Error("count=0 must error")
	}
	// A GPU-reduce plan pipelines nothing: cost is exactly k×single.
	gplan, err := BuildPlan(c, cl, 1<<24, Options{WindowSize: 12, ReduceOnGPU: true})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := gplan.EstimatePipeline(k)
	if err != nil {
		t.Fatal(err)
	}
	if diff := gp.Total() - float64(k)*gplan.EstimateCost().Total(); diff > 1e-12 || diff < -1e-12 {
		t.Error("GPU-reduce pipeline should serialise")
	}
}

// singleUnoverlapped returns the cost of one MSM with the CPU reduce NOT
// hidden (the serial, unpipelined composition).
func singleUnoverlapped(p *Plan) float64 {
	c := p.EstimateCost()
	return c.Scatter + c.BucketSum + c.Transfer + c.BucketReduce + c.WindowReduce
}
