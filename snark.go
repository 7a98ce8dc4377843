package distmsm

import (
	"context"
	"math/rand"

	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/groth16"
	"distmsm/internal/r1cs"
	"distmsm/internal/workloads"
)

// This file exposes the end-to-end zkSNARK pipeline (Groth16 over BN254)
// whose proof-generation MSMs can be routed through the simulated
// multi-GPU DistMSM engine — the configuration of the paper's Table 4.

// Re-exported zkSNARK types.
type (
	// ConstraintSystem is a rank-1 constraint system over the BN254
	// scalar field.
	ConstraintSystem = r1cs.System
	// Witness is a full R1CS assignment ([1, public..., private...]).
	Witness = []field.Element
	// Proof is a Groth16 proof.
	Proof = groth16.Proof
	// ProvingKey / VerifyingKey are the Groth16 setup outputs.
	ProvingKey   = groth16.ProvingKey
	VerifyingKey = groth16.VerifyingKey
	// FieldElement is a scalar-field element.
	FieldElement = field.Element
)

// SNARK is a Groth16 prover/verifier whose G1 MSMs run on a simulated
// multi-GPU system when one is attached.
type SNARK struct {
	engine *groth16.Engine
	system *System
	// ModeledMSMSeconds accumulates the simulated-GPU cost of the
	// prover's MSMs (zero when no system is attached).
	ModeledMSMSeconds float64
}

// NewSNARK builds the BN254 Groth16 engine. sys may be nil (CPU MSMs).
func NewSNARK(sys *System) (*SNARK, error) {
	e, err := groth16.NewEngine()
	if err != nil {
		return nil, err
	}
	return &SNARK{engine: e, system: sys}, nil
}

// ScalarField returns the BN254 scalar field (for building witnesses).
func (s *SNARK) ScalarField() *field.Field { return s.engine.Fr }

// NewConstraintSystem creates an empty system with nPublic public inputs.
func (s *SNARK) NewConstraintSystem(nPublic int) *ConstraintSystem {
	return r1cs.New(s.engine.Fr, nPublic)
}

// ProductCircuit builds the quickstart circuit (prove knowledge of a
// non-trivial factorisation a·b = c) and returns the system.
func (s *SNARK) ProductCircuit() (*ConstraintSystem, func(a, b FieldElement) (Witness, error)) {
	cs, _, _ := r1cs.BuildProduct(s.engine.Fr)
	return cs, func(a, b FieldElement) (Witness, error) {
		return r1cs.WitnessProduct(cs, a, b)
	}
}

// SyntheticCircuit builds an n-constraint workload-shaped circuit with a
// valid witness (the Table 4 stand-in shape).
func (s *SNARK) SyntheticCircuit(n int, seed int64) (*ConstraintSystem, Witness) {
	return r1cs.BuildSynthetic(s.engine.Fr, n, seed)
}

// SetupContext runs the trusted setup, honouring ctx between the QAP
// evaluation and the per-variable key-element batches.
func (s *SNARK) SetupContext(ctx context.Context, cs *ConstraintSystem, rnd *rand.Rand) (*ProvingKey, *VerifyingKey, error) {
	return s.engine.SetupContext(ctx, cs, rnd)
}

// ProveContext generates a proof; when a System is attached, the G1
// MSMs run through the concurrent DistMSM engine and their modeled GPU
// time accumulates in ModeledMSMSeconds. The prover runs its phase
// table as the dependency DAG: the quotient's coset NTTs overlap the
// witness-only MSMs, and msm-Z starts when the quotient lands. The
// proof bytes do not depend on the schedule. The context is honoured
// through the whole pipeline — the quotient's coset NTTs (between
// butterfly passes), every MSM phase boundary, and the MSM shards
// themselves — so a cancel or deadline aborts the prover promptly
// wherever it lands.
func (s *SNARK) ProveContext(ctx context.Context, cs *ConstraintSystem, pk *ProvingKey, w Witness, rnd *rand.Rand) (*Proof, error) {
	pr := groth16.Provers{Pipeline: &groth16.PipelineOptions{}}
	// The G1 phases run concurrently, so each writes its modeled cost
	// into its own slot; the slots are added in phase order once the
	// prover returns, which keeps the float sum schedule-independent.
	var modeled [4]float64
	if s.system != nil {
		pr.G1Ctx = func(ctx context.Context, phase groth16.MSMPhase, points []curve.PointAffine, scalars []Scalar) (*curve.PointXYZZ, error) {
			res, err := core.RunContext(ctx, s.engine.P.Curve, s.system.cluster, points, scalars,
				core.Options{Engine: core.EngineConcurrent})
			if err != nil {
				return nil, err
			}
			modeled[phase] = res.Cost.Total()
			return res.Point, nil
		}
	}
	proof, err := s.engine.ProveContextWith(ctx, cs, pk, w, rnd, pr)
	for _, sec := range modeled {
		s.ModeledMSMSeconds += sec
	}
	return proof, err
}

// Verify checks a proof against the public inputs.
func (s *SNARK) Verify(vk *VerifyingKey, proof *Proof, public []FieldElement) (bool, error) {
	return s.engine.Verify(vk, proof, public)
}

// WorkloadEstimate models end-to-end proof generation for one of the
// paper's Table 4 applications on nGPU simulated A100s, returning
// (libsnark CPU seconds, DistMSM seconds).
func WorkloadEstimate(name string, nGPU int) (cpuSec, gpuSec float64, err error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	cpu := workloads.LibsnarkProver(w.Constraints)
	gpu, err := workloads.DistMSMProver(w.Constraints, nGPU)
	if err != nil {
		return 0, 0, err
	}
	return cpu.Total(), gpu.Total(), nil
}

// Workloads lists the Table 4 application names.
func Workloads() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}
