package workloads

import (
	"context"
	"math/rand"
	"testing"

	"distmsm/internal/groth16"
	"distmsm/internal/r1cs"
)

func TestWorkloadInventory(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("want 3 workloads, got %d", len(all))
	}
	want := map[string]int{
		"Zcash-Sprout": 2585747,
		"Otti-SGD":     6968254,
		"Zen-LeNet":    77689757,
	}
	for _, w := range all {
		if want[w.Name] != w.Constraints {
			t.Errorf("%s: %d constraints, want %d", w.Name, w.Constraints, want[w.Name])
		}
	}
	if _, err := ByName("Zcash-Sprout"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected unknown-workload error")
	}
}

// Table 4 shape: the modeled end-to-end speedup sits in the paper's
// ~25× band for every workload, and the modeled absolute times are
// within 2× of the published numbers.
func TestTable4Speedups(t *testing.T) {
	for _, w := range All() {
		cpu := LibsnarkProver(w.Constraints)
		gpu, err := DistMSMProver(w.Constraints, 8)
		if err != nil {
			t.Fatal(err)
		}
		speedup := cpu.Total() / gpu.Total()
		paperSpeedup := w.PaperLibsnarkSec / w.PaperDistMSMSec
		if speedup < paperSpeedup*0.7 || speedup > paperSpeedup*1.4 {
			t.Errorf("%s: speedup %.1fx vs paper %.1fx", w.Name, speedup, paperSpeedup)
		}
		if cpu.Total() < w.PaperLibsnarkSec/2 || cpu.Total() > w.PaperLibsnarkSec*2 {
			t.Errorf("%s: libsnark model %.1fs vs paper %.1fs", w.Name, cpu.Total(), w.PaperLibsnarkSec)
		}
		if gpu.Total() < w.PaperDistMSMSec/2 || gpu.Total() > w.PaperDistMSMSec*2 {
			t.Errorf("%s: DistMSM model %.1fs vs paper %.1fs", w.Name, gpu.Total(), w.PaperDistMSMSec)
		}
	}
}

// §5.1.1: CPU proof generation splits ~78.2 / 17.9 / 3.9 across
// MSM / NTT / others; after acceleration the un-offloaded "others"
// dominates (Amdahl).
func TestStageProportions(t *testing.T) {
	cpu := LibsnarkProver(1 << 22)
	tot := cpu.Total()
	if f := cpu.MSM / tot; f < 0.75 || f > 0.81 {
		t.Errorf("CPU MSM fraction %.3f, want ~0.782", f)
	}
	if f := cpu.NTT / tot; f < 0.15 || f > 0.21 {
		t.Errorf("CPU NTT fraction %.3f, want ~0.179", f)
	}
	gpu, err := DistMSMProver(1<<22, 8)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Other < gpu.MSM || gpu.Other < gpu.NTT {
		t.Error("after acceleration the CPU-resident stage should dominate")
	}
}

// More GPUs shrink only the MSM stage.
func TestGPUScalingLimitedByAmdahl(t *testing.T) {
	g1, err := DistMSMProver(1<<22, 1)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := DistMSMProver(1<<22, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g8.MSM >= g1.MSM {
		t.Error("8-GPU MSM stage should be faster than 1-GPU")
	}
	if g8.Other != g1.Other || g8.NTT != g1.NTT {
		t.Error("non-MSM stages should be unaffected by GPU count")
	}
	if g1.Total()/g8.Total() > 3 {
		t.Error("end-to-end gain should be Amdahl-limited")
	}
}

// A small instance of the synthetic workload circuit really proves and
// verifies through the full Groth16 pipeline — the functional anchor
// behind the Table 4 model.
func TestSmallInstanceProvesForReal(t *testing.T) {
	e, err := groth16.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	cs, w := r1cs.BuildSynthetic(e.Fr, 100, 4)
	rnd := rand.New(rand.NewSource(8))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, groth16.Provers{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic])
	if err != nil || !ok {
		t.Fatalf("small workload instance failed to verify: %v", err)
	}
}

// §5.1.1's hypothetical all-GPU distribution: with MSM on 8 GPUs, NTT
// dominates (the paper reports 38.1 / 50.4 / 11.5%).
func TestAllGPUProjection(t *testing.T) {
	m := 1 << 24
	one, err := AllGPUProjection(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := one.MSM / one.Total(); f < 0.70 || f > 0.85 {
		t.Errorf("single-GPU MSM fraction %.3f, want ~0.789", f)
	}
	eight, err := AllGPUProjection(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if eight.NTT <= eight.MSM {
		t.Error("with 8-GPU MSM, NTT should dominate (paper: 50.4% vs 38.1%)")
	}
	if f := eight.NTT / eight.Total(); f < 0.38 || f > 0.70 {
		t.Errorf("8-GPU NTT fraction %.3f, want ~0.504", f)
	}
}

// The paper's closing projection: multi-GPU NTT lifts the Amdahl ceiling.
func TestFutureProjectionBeatsNTTBottleneck(t *testing.T) {
	m := 1 << 24
	now, err := AllGPUProjection(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	future, err := FutureProjection(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if future.Total() >= now.Total() {
		t.Errorf("multi-GPU NTT should reduce the total: %.4g vs %.4g", future.Total(), now.Total())
	}
	if future.NTT >= now.NTT {
		t.Error("NTT stage should shrink with multi-GPU NTT")
	}
	one, err := FutureProjection(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.NTT != now.NTT*8/8 && one.Total() <= 0 {
		t.Error("degenerate single-GPU projection")
	}
}

// §3.2.3: pipelining the MSM stream across proofs never loses and wins
// whenever the CPU reduce is on the critical path.
func TestProofPipelineEstimate(t *testing.T) {
	pipe, serial, err := ProofPipelineEstimate(1<<22, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pipe > serial*1.0001 {
		t.Errorf("pipelined (%.4g) worse than serial (%.4g)", pipe, serial)
	}
	if pipe <= 0 || serial <= 0 {
		t.Fatal("non-positive estimates")
	}
}
