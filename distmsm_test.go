package distmsm_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"distmsm"
	"distmsm/internal/groth16"
)

func TestPublicAPICurves(t *testing.T) {
	names := distmsm.Curves()
	if len(names) != 4 {
		t.Fatalf("want 4 curves, got %v", names)
	}
	for _, n := range names {
		c, err := distmsm.Curve(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != n {
			t.Errorf("curve name mismatch: %s != %s", c.Name, n)
		}
	}
	if _, err := distmsm.Curve("secp256k1"); err == nil {
		t.Error("unsupported curve must error")
	}
}

func TestPublicAPIMSM(t *testing.T) {
	c, err := distmsm.Curve("BLS12-381")
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	points := c.SamplePoints(n, 5)
	scalars := c.SampleScalars(n, 6)

	for _, model := range []distmsm.DeviceModel{distmsm.A100, distmsm.RTX4090, distmsm.AMD6900XT} {
		sys, err := distmsm.NewSystem(model, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.MSMContext(context.Background(), c, points, scalars, distmsm.WithWindowBits(8))
		if err != nil {
			t.Fatal(err)
		}
		want, err := distmsm.CPUMSM(c, points, scalars)
		if err != nil {
			t.Fatal(err)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Fatalf("%s: MSM result mismatch", sys.DeviceName())
		}
		if res.Cost.Total() <= 0 {
			t.Fatalf("%s: non-positive cost", sys.DeviceName())
		}
	}
	if _, err := distmsm.NewSystem(distmsm.A100, 0); err == nil {
		t.Error("zero-GPU system must error")
	}
}

func TestPublicAPIEstimateAndBaseline(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.EstimateContext(context.Background(), c, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	bg, name, err := distmsm.BestBaseline(c, distmsm.A100, 16, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if name == "" || bg <= res.Cost.Total() {
		t.Errorf("DistMSM (%.4g) should beat baseline %s (%.4g) at 16 GPUs", res.Cost.Total(), name, bg)
	}
}

func TestPublicAPISNARK(t *testing.T) {
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	snark, err := distmsm.NewSNARK(sys)
	if err != nil {
		t.Fatal(err)
	}
	fr := snark.ScalarField()
	cs, witnessFor := snark.ProductCircuit()
	rnd := rand.New(rand.NewSource(9))
	pk, vk, err := snark.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fr.FromUint64(101), fr.FromUint64(103)
	w, err := witnessFor(a, b)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := snark.ProveContext(context.Background(), cs, pk, w, rnd)
	if err != nil {
		t.Fatal(err)
	}
	c := fr.NewElement()
	fr.Mul(c, a, b)
	ok, err := snark.Verify(vk, proof, []distmsm.FieldElement{c})
	if err != nil || !ok {
		t.Fatalf("public-API proof failed: %v", err)
	}
	if snark.ModeledMSMSeconds <= 0 {
		t.Error("GPU-routed prover should accumulate modeled MSM time")
	}
}

// TestSNARKProveDeterministic: ProveContext runs its G1 phases
// concurrently, yet two proves with the same blinding give the same
// proof bytes and bit-equal modeled MSM seconds.
func TestSNARKProveDeterministic(t *testing.T) {
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	snark, err := distmsm.NewSNARK(sys)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := groth16.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cs, w := snark.SyntheticCircuit(64, 3)
	pk, vk, err := snark.SetupContext(ctx, cs, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var proofs [2][]byte
	var modeled [2]float64
	for i := range proofs {
		snark.ModeledMSMSeconds = 0
		proof, err := snark.ProveContext(ctx, cs, pk, w, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := snark.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil || !ok {
			t.Fatalf("prove %d did not verify: %v", i, err)
		}
		proofs[i], modeled[i] = eng.MarshalProof(proof), snark.ModeledMSMSeconds
	}
	if !bytes.Equal(proofs[0], proofs[1]) {
		t.Error("same blinding, different proof bytes")
	}
	if math.Float64bits(modeled[0]) != math.Float64bits(modeled[1]) || modeled[0] <= 0 {
		t.Errorf("modeled MSM seconds %v and %v, want equal and positive", modeled[0], modeled[1])
	}
}

func TestPublicAPIMSMContext(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	const n = 96
	points := c.SamplePoints(n, 11)
	scalars := c.SampleScalars(n, 12)
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Default (concurrent engine, auto window) against the CPU reference.
	res, err := sys.MSMContext(ctx, c, points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	want, err := distmsm.CPUMSM(c, points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("MSMContext result mismatch")
	}
	if len(res.Stats.PerGPU) == 0 {
		t.Error("concurrent default should record per-GPU stats")
	}

	// Functional options compose, and the two engines agree bit-for-bit.
	ser, err := sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithWindowBits(9),
		distmsm.WithEngine(distmsm.EngineSerial))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithWindowBits(9),
		distmsm.WithEngine(distmsm.EngineConcurrent))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ser.Point, conc.Point) {
		t.Fatal("serial and concurrent engines disagree through the public API")
	}
}

// TestPublicAPIPrecomputedBases: MSMs over PrecomputeBases tables, with
// and without the GLV split folded in, equal the CPU reference, and
// WithGLV without tables is an error rather than a second strategy.
// BN254 G1 has cofactor 1, so every sample point lies in the
// prime-order subgroup GLV needs.
func TestPublicAPIPrecomputedBases(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	const n = 96
	points := c.SamplePoints(n, 13)
	scalars := c.SampleScalars(n, 14)
	want, err := distmsm.CPUMSM(c, points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, glv := range []bool{false, true} {
		fb, err := distmsm.PrecomputeBases(c, points, distmsm.WithGLV(glv))
		if err != nil {
			t.Fatalf("glv=%v: %v", glv, err)
		}
		if fb.GLV() != glv || fb.N() != n {
			t.Errorf("glv=%v: tables report GLV=%v N=%d", glv, fb.GLV(), fb.N())
		}
		res, err := sys.MSMContext(ctx, c, points, scalars,
			distmsm.WithPrecomputedBases(fb), distmsm.WithGLV(glv))
		if err != nil {
			t.Fatalf("glv=%v: %v", glv, err)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Errorf("glv=%v: MSM over precomputed bases differs from CPUMSM", glv)
		}
	}
	if _, err := sys.MSMContext(ctx, c, points, scalars, distmsm.WithGLV(true)); err == nil {
		t.Error("WithGLV without precomputed bases must error")
	}
}

func TestPublicAPISentinelErrors(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := distmsm.NewSystem(distmsm.A100, 0); !errors.Is(err, distmsm.ErrNoGPUs) {
		t.Errorf("want ErrNoGPUs, got %v", err)
	}
	_, err = sys.MSMContext(ctx, c, c.SamplePoints(2, 1), c.SampleScalars(1, 1))
	if !errors.Is(err, distmsm.ErrLengthMismatch) {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	// A scalar one bit past λ must be rejected as too wide.
	wide := c.SampleScalars(1, 2)
	words := len(wide[0])
	wide[0][words-1] = 0
	wide[0][(c.ScalarBits)/64] |= 1 << (uint(c.ScalarBits) % 64)
	_, err = sys.MSMContext(ctx, c, c.SamplePoints(1, 2), wide)
	if !errors.Is(err, distmsm.ErrScalarTooWide) {
		t.Errorf("want ErrScalarTooWide, got %v", err)
	}
}

func TestPublicAPICancellation(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.MSMContext(ctx, c, c.SamplePoints(8, 3), c.SampleScalars(8, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestPublicAPIEmptyInput(t *testing.T) {
	c, err := distmsm.Curve("BLS12-381")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MSMContext(context.Background(), c, nil, nil); !errors.Is(err, distmsm.ErrEmptyInput) {
		t.Fatalf("empty MSMContext: want ErrEmptyInput, got %v", err)
	}
	// The plain CPU path keeps the mathematical convention: Σ over the
	// empty set is the identity.
	pt, err := distmsm.CPUMSM(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt == nil || !pt.IsInf() {
		t.Fatal("empty CPUMSM must return a non-nil point at infinity")
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	points := c.SamplePoints(n, 21)
	scalars := c.SampleScalars(n, 22)
	sys, err := distmsm.NewSystem(distmsm.A100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	clean, err := sys.MSMContext(ctx, c, points, scalars, distmsm.WithWindowBits(8))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Faults.Any() {
		t.Fatalf("fault-free run reported fault activity: %+v", clean.Stats.Faults)
	}

	// A mixed fault load: the result must stay bit-identical and the
	// recovery must be visible in the stats.
	faulty, err := sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithWindowBits(8),
		distmsm.WithFaultInjection(distmsm.FaultConfig{
			Seed: 7, Transient: 0.2, Straggler: 0.1, Corrupt: 0.1, DeviceLost: 0.02,
		}),
		distmsm.WithRetryPolicy(distmsm.RetryPolicy{MaxAttempts: 3}),
		distmsm.WithVerifySampling(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Point, faulty.Point) {
		t.Fatal("fault recovery changed the MSM result")
	}
	if !faulty.Stats.Faults.Any() {
		t.Error("injected faults left no trace in Stats.Faults")
	}
	if faulty.Stats.Faults.VerificationRuns == 0 {
		t.Error("WithVerifySampling(1) ran no verifications")
	}

	// Losing every device degrades to the serial engine, same result.
	lost, err := sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithWindowBits(8),
		distmsm.WithFaultInjection(distmsm.FaultConfig{Seed: 1, DeviceLost: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !lost.Stats.Faults.DegradedToSerial {
		t.Error("all-GPUs-lost run did not report serial degradation")
	}
	if !reflect.DeepEqual(clean.Point, lost.Point) {
		t.Fatal("degraded serial run changed the MSM result")
	}

	// ...unless fallback is disabled, then the sentinel surfaces.
	_, err = sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithWindowBits(8),
		distmsm.WithFaultInjection(distmsm.FaultConfig{Seed: 1, DeviceLost: 1, DisableFallback: true}))
	if !errors.Is(err, distmsm.ErrAllGPUsLost) {
		t.Fatalf("want ErrAllGPUsLost, got %v", err)
	}

	// An invalid fault config is rejected up front.
	_, err = sys.MSMContext(ctx, c, points, scalars,
		distmsm.WithFaultInjection(distmsm.FaultConfig{Transient: 0.8, Corrupt: 0.8}))
	if !errors.Is(err, distmsm.ErrBadFaultConfig) {
		t.Fatalf("want ErrBadFaultConfig, got %v", err)
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	ws := distmsm.Workloads()
	if len(ws) != 3 {
		t.Fatalf("want 3 workloads, got %v", ws)
	}
	cpu, gpu, err := distmsm.WorkloadEstimate("Zcash-Sprout", 8)
	if err != nil {
		t.Fatal(err)
	}
	if sp := cpu / gpu; sp < 18 || sp > 35 {
		t.Errorf("Zcash-Sprout speedup %.1fx outside ~25x band", sp)
	}
	if _, _, err := distmsm.WorkloadEstimate("nope", 8); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(distmsm.Experiments()) != 10 {
		t.Fatalf("want 10 experiments, got %v", distmsm.Experiments())
	}
	out, err := distmsm.RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BN254") {
		t.Error("table1 output malformed")
	}
}

func TestPublicAPIPipelined(t *testing.T) {
	c, err := distmsm.Curve("BN254")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := distmsm.NewSystem(distmsm.A100, 8)
	if err != nil {
		t.Fatal(err)
	}
	one, err := sys.EstimateContext(context.Background(), c, 1<<24, distmsm.WithWindowBits(12))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sys.EstimatePipelinedContext(context.Background(), c, 1<<24, 6, distmsm.WithWindowBits(12))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Total() <= one.Cost.Total() || pipe.Total() >= 7*one.Cost.Total() {
		t.Errorf("pipelined total %.4g implausible vs single %.4g", pipe.Total(), one.Cost.Total())
	}
}
