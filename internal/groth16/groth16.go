// Package groth16 implements the Groth16 zkSNARK over BN254 from the
// substrates in this repository: R1CS → QAP via the NTT, proving-key
// MSMs over G1 (the workload DistMSM accelerates) and G2, and pairing-
// based verification. It is the end-to-end pipeline of Table 4; the
// prover accepts a pluggable G1 MSM so the simulated multi-GPU DistMSM
// can be swapped in for the CPU Pippenger.
package groth16

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/msm"
	"distmsm/internal/ntt"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
)

// ProvingKey holds the per-variable evaluated setup elements.
type ProvingKey struct {
	// G1 elements.
	Alpha, Beta, Delta curve.PointAffine
	A                  []curve.PointAffine // u_i(τ)·G1 per variable
	B1                 []curve.PointAffine // v_i(τ)·G1 per variable
	K                  []curve.PointAffine // ((βu_i+αv_i+w_i)/δ)·G1, private vars
	Z                  []curve.PointAffine // (τ^j·t(τ)/δ)·G1, j = 0..d-2
	// G2 elements.
	Beta2, Delta2 pairing.G2Affine
	B2            []pairing.G2Affine // v_i(τ)·G2 per variable

	Domain int // QAP domain size d
}

// VerifyingKey is the succinct verification key.
type VerifyingKey struct {
	Alpha                 curve.PointAffine
	Beta2, Gamma2, Delta2 pairing.G2Affine
	// IC[i] = ((βu_i+αv_i+w_i)/γ)·G1 for the constant one and each
	// public input.
	IC []curve.PointAffine

	// alphaBeta caches e(α, β), the one proof-independent factor of the
	// verification equation. SetupContext and UnmarshalVerifyingKey fill
	// it; it is never encoded, and Verify never writes it, so a key
	// shared by concurrent verifiers is read-only. A key built any other
	// way, or whose Alpha or Beta2 changed since, pays the pairing in
	// every Verify.
	alphaBeta *alphaBetaCache
}

// alphaBetaCache is e(α, β) together with the α and β it was computed
// from.
type alphaBetaCache struct {
	alpha curve.PointAffine
	beta2 pairing.G2Affine
	gt    pairing.E12
}

// cacheAlphaBeta fills vk's e(α, β) cache.
func (e *Engine) cacheAlphaBeta(vk *VerifyingKey) {
	alpha := curve.PointAffine{X: vk.Alpha.X.Clone(), Y: vk.Alpha.Y.Clone(), Inf: vk.Alpha.Inf}
	vk.alphaBeta = &alphaBetaCache{alpha: alpha, beta2: vk.Beta2, gt: e.P.Pair(&alpha, &vk.Beta2)}
}

// alphaBeta returns e(α, β) for vk: the cached value when it was
// computed from vk's current α and β, else a fresh pairing.
func (e *Engine) alphaBeta(vk *VerifyingKey) pairing.E12 {
	if c := vk.alphaBeta; c != nil && c.beta2 == vk.Beta2 && e.P.Curve.EqualAffine(&c.alpha, &vk.Alpha) {
		return c.gt
	}
	return e.P.Pair(&vk.Alpha, &vk.Beta2)
}

// Proof is the three-element Groth16 proof (~256 bytes over BN254).
type Proof struct {
	A curve.PointAffine
	B pairing.G2Affine
	C curve.PointAffine
}

// MSMPhase identifies which proving-key column a G1 MSM runs over, so a
// phase-aware backend (ProveContextWith) can swap in per-column
// precomputed fixed-base tables.
type MSMPhase int

// The prover's G1 MSM phases, in execution order.
const (
	PhaseA MSMPhase = iota
	PhaseB1
	PhaseK
	PhaseZ
)

func (p MSMPhase) String() string {
	switch p {
	case PhaseA:
		return "A"
	case PhaseB1:
		return "B1"
	case PhaseK:
		return "K"
	case PhaseZ:
		return "Z"
	}
	return "?"
}

// PhasedMSMContextFunc routes one G1 MSM, told which proving-key column
// the point vector is. The scalars are witness-derived; the points are
// always exactly the registered key column for the phase. The phase-DAG
// prover passes its per-proof group context, so the first failing phase
// cancels the other phases' MSMs mid-flight instead of merely before
// they start.
type PhasedMSMContextFunc func(ctx context.Context, phase MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error)

// G2MSMContextFunc routes the prover's single G2 MSM (over pk.B2),
// honouring ctx and returning errors instead of swallowing them.
type G2MSMContextFunc func(ctx context.Context, points []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error)

// Provers bundles the MSM backends of one proof. Any field may be nil:
// G1Ctx falls back to the CPU Pippenger, G2Ctx to the built-in
// cancellable windowed G2 MSM.
type Provers struct {
	G1Ctx PhasedMSMContextFunc
	G2Ctx G2MSMContextFunc
	// Pipeline selects the schedule of the prover's one phase table:
	// nil runs the phases in order on the calling goroutine; non-nil runs
	// them as their dependency DAG, where the quotient (on parallel coset
	// NTTs) overlaps the four witness-only MSM phases and msm-Z starts
	// the moment h lands. The proof bytes do not depend on the schedule.
	Pipeline *PipelineOptions
}

// PipelineOptions configure the phase-DAG schedule. Its quotient runs
// the coset NTTs GOMAXPROCS wide — the host-parallel stand-in for the
// multi-GPU four-step NTT the paper names as the next target (§5.1.1,
// internal/ntt/fourstep.go).
type PipelineOptions struct {
	// OnPhase, when set, receives every completed phase's name and wall
	// duration. Phases complete concurrently, so OnPhase must be safe
	// for concurrent use.
	OnPhase func(name string, d time.Duration)
}

// g1msm resolves the G1 backend.
func (e *Engine) g1msm(pr Provers) PhasedMSMContextFunc {
	if pr.G1Ctx != nil {
		return pr.G1Ctx
	}
	return func(ctx context.Context, _ MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return msm.MSM(e.P.Curve, points, scalars, msm.Config{Signed: true})
	}
}

// g2msm resolves the G2 backend.
func (e *Engine) g2msm(pr Provers) G2MSMContextFunc {
	if pr.G2Ctx != nil {
		return pr.G2Ctx
	}
	return func(ctx context.Context, points []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
		return e.P.G2.MSMContext(ctx, points, scalars)
	}
}

// Engine bundles the pairing context used by setup/prove/verify.
type Engine struct {
	P  *pairing.Pairing
	Fr *field.Field
}

// NewEngine builds the BN254 Groth16 engine.
func NewEngine() (*Engine, error) {
	p, err := pairing.NewBN254()
	if err != nil {
		return nil, err
	}
	return &Engine{P: p, Fr: p.Fr}, nil
}

// qapEvalsAtTau evaluates all QAP basis polynomials at τ using the
// Lagrange basis on the size-d subgroup: L_q(τ) = ω^q·(τ^d−1)/(d·(τ−ω^q)).
func (e *Engine) qapEvalsAtTau(cs *r1cs.System, d int, tau field.Element) (u, v, w []field.Element, err error) {
	fr := e.Fr
	omega, err := fr.RootOfUnity(log2(d))
	if err != nil {
		return nil, nil, nil, err
	}
	// Compute L_q(τ) for all q with one batch inversion.
	tauD := fr.NewElement()
	fr.Exp(tauD, tau, big.NewInt(int64(d)))
	zH := fr.NewElement()
	fr.Sub(zH, tauD, fr.One()) // τ^d − 1
	dEl := fr.FromUint64(uint64(d))

	den := make([]field.Element, d)
	wq := fr.One()
	tmp := fr.NewElement()
	omegaPow := make([]field.Element, d)
	for q := 0; q < d; q++ {
		omegaPow[q] = wq.Clone()
		den[q] = fr.NewElement()
		fr.Sub(den[q], tau, wq)
		fr.Mul(tmp, den[q], dEl)
		den[q].Set(tmp)
		fr.Mul(tmp, wq, omega)
		wq.Set(tmp)
	}
	fr.BatchInvert(den)
	lag := make([]field.Element, d)
	for q := 0; q < d; q++ {
		lag[q] = fr.NewElement()
		fr.Mul(lag[q], den[q], zH)
		fr.Mul(tmp, lag[q], omegaPow[q])
		lag[q].Set(tmp)
	}

	u = zeroVec(fr, cs.NVars)
	v = zeroVec(fr, cs.NVars)
	w = zeroVec(fr, cs.NVars)
	for q, con := range cs.Constraints {
		for _, t := range con.A {
			fr.Mul(tmp, t.Coeff, lag[q])
			fr.Add(u[t.Var], u[t.Var], tmp)
		}
		for _, t := range con.B {
			fr.Mul(tmp, t.Coeff, lag[q])
			fr.Add(v[t.Var], v[t.Var], tmp)
		}
		for _, t := range con.C {
			fr.Mul(tmp, t.Coeff, lag[q])
			fr.Add(w[t.Var], w[t.Var], tmp)
		}
	}
	return u, v, w, nil
}

func zeroVec(f *field.Field, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = f.NewElement()
	}
	return out
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// setupCancelStride is how many per-variable key elements SetupContext
// computes between context checks. Each element is several hundred curve
// operations, so a stride of 64 bounds the cancellation latency to a few
// milliseconds without measurable overhead.
const setupCancelStride = 64

// SetupContext runs the (simulated) trusted setup for the constraint
// system, sampling the toxic waste from rnd and discarding it. It
// honours ctx between the QAP evaluation, the per-variable key-element
// loops (checked every setupCancelStride variables) and the Z-power
// loop. A cancelled setup returns ctx.Err() and the partial keys are
// discarded.
func (e *Engine) SetupContext(ctx context.Context, cs *r1cs.System, rnd *rand.Rand) (*ProvingKey, *VerifyingKey, error) {
	fr := e.Fr
	d := 1
	for d < len(cs.Constraints)+1 {
		d <<= 1
	}
	if log2(d) > fr.TwoAdicity() {
		return nil, nil, fmt.Errorf("groth16: circuit too large for the field's 2-adicity")
	}

	tau, alpha, beta, gamma, delta := fr.Rand(rnd), fr.Rand(rnd), fr.Rand(rnd), fr.Rand(rnd), fr.Rand(rnd)
	for _, x := range []field.Element{tau, gamma, delta} {
		if x.IsZero() {
			return nil, nil, fmt.Errorf("groth16: degenerate toxic waste")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	u, v, w, err := e.qapEvalsAtTau(cs, d, tau)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	gammaInv, deltaInv := fr.NewElement(), fr.NewElement()
	fr.Inv(gammaInv, gamma)
	fr.Inv(deltaInv, delta)

	g1 := &e.P.Curve.Gen
	g2 := &e.P.G2.Gen
	// Fixed-base comb on the G1 generator: the setup performs ~4 G1
	// multiplications per variable, and the comb cuts each from λ
	// doublings+additions to λ/8 of either.
	comb := e.P.Curve.NewComb(g1, 8)
	mulG1 := func(k field.Element) curve.PointAffine {
		return e.P.Curve.ToAffine(comb.Mul(frNat(fr, k)))
	}
	mulG2 := func(k field.Element) pairing.G2Affine {
		return e.P.G2.ScalarMulFr(g2, fr, k)
	}

	pk := &ProvingKey{Domain: d}
	vk := &VerifyingKey{}
	pk.Alpha = mulG1(alpha)
	pk.Beta = mulG1(beta)
	pk.Delta = mulG1(delta)
	pk.Beta2 = mulG2(beta)
	pk.Delta2 = mulG2(delta)
	vk.Alpha = pk.Alpha
	vk.Beta2 = pk.Beta2
	vk.Gamma2 = mulG2(gamma)
	vk.Delta2 = pk.Delta2

	tmp, tmp2 := fr.NewElement(), fr.NewElement()
	pk.A = make([]curve.PointAffine, cs.NVars)
	pk.B1 = make([]curve.PointAffine, cs.NVars)
	pk.B2 = make([]pairing.G2Affine, cs.NVars)
	pk.K = make([]curve.PointAffine, cs.NVars)
	vk.IC = make([]curve.PointAffine, cs.NPublic+1)
	for i := 0; i < cs.NVars; i++ {
		if i%setupCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		pk.A[i] = mulG1(u[i])
		pk.B1[i] = mulG1(v[i])
		pk.B2[i] = mulG2(v[i])
		// k_i = β·u_i + α·v_i + w_i
		fr.Mul(tmp, beta, u[i])
		fr.Mul(tmp2, alpha, v[i])
		fr.Add(tmp, tmp, tmp2)
		fr.Add(tmp, tmp, w[i])
		if i <= cs.NPublic {
			fr.Mul(tmp2, tmp, gammaInv)
			vk.IC[i] = mulG1(tmp2)
			pk.K[i] = curve.PointAffine{Inf: true}
		} else {
			fr.Mul(tmp2, tmp, deltaInv)
			pk.K[i] = mulG1(tmp2)
		}
	}

	// Z_j = τ^j·t(τ)/δ with t(τ) = τ^d − 1.
	tTau := fr.NewElement()
	fr.Exp(tTau, tau, big.NewInt(int64(d)))
	fr.Sub(tTau, tTau, fr.One())
	fr.Mul(tTau, tTau, deltaInv)
	pk.Z = make([]curve.PointAffine, d-1)
	pw := tTau.Clone()
	for j := 0; j < d-1; j++ {
		if j%setupCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		pk.Z[j] = mulG1(pw)
		fr.Mul(tmp, pw, tau)
		pw.Set(tmp)
	}
	e.cacheAlphaBeta(vk)
	return pk, vk, nil
}

// frNat converts an Fr element to the plain scalar Nat the MSM consumes.
func frNat(fr *field.Field, k field.Element) bigint.Nat {
	return bigint.FromBig(fr.ToBig(k), fr.Width())
}

// ProveContextWith generates a proof for the witness, honouring ctx
// through the whole pipeline: the witness check, the quotient's coset
// NTTs (cancellation between butterfly passes), and every G1/G2 MSM
// phase boundary. A cancelled or deadlined proof returns ctx.Err() —
// with an expired deadline that is context.DeadlineExceeded from inside
// the prover itself, independent of whether the MSM backends observe
// the context. A failing phase returns "groth16: phase <name>: …"
// wrapping its error.
//
// MSM routing is phase-aware: the G1 backend learns which proving-key
// column each MSM is over (so cached per-column fixed-base tables
// apply), and the G2 MSM over pk.B2 is routable too. Zero-valued Provers
// fields select the CPU defaults. The prover is one phase table (see
// pipeline.go): pr.Pipeline nil runs it in table order on the calling
// goroutine, pr.Pipeline set runs it as its dependency DAG.
func (e *Engine) ProveContextWith(ctx context.Context, cs *r1cs.System, pk *ProvingKey, witness []field.Element, rnd *rand.Rand, pr Provers) (*Proof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cs.Satisfied(witness); err != nil {
		return nil, err
	}
	fr := e.Fr
	msmG1 := e.g1msm(pr)
	msmG2 := e.g2msm(pr)
	nttWorkers := 1 // the sequential schedule's quotient runs inline
	if pr.Pipeline != nil {
		nttWorkers = 0 // GOMAXPROCS
	}

	// The proof randomness is drawn once, r then s, before any phase: no
	// phase consumes randomness, so every schedule sees the same values.
	r, s := fr.Rand(rnd), fr.Rand(rnd)
	wScalars := make([]bigint.Nat, len(witness))
	big2 := make([]*big.Int, len(witness))
	for i, a := range witness {
		wScalars[i] = frNat(fr, a)
		big2[i] = fr.ToBig(a)
	}
	privScalars := privateScalars(fr, cs, witness, wScalars)

	// plusDelta returns base + sum + k·δ in G1: the shape of A (α, r)
	// and of B's G1 mirror (β, s).
	plusDelta := func(base *curve.PointAffine, sum *curve.PointXYZZ, k field.Element) *curve.PointXYZZ {
		adder := e.P.Curve.NewAdder()
		acc := e.P.Curve.NewXYZZ()
		e.P.Curve.SetAffine(acc, base)
		adder.Add(acc, sum)
		adder.Add(acc, adder.ScalarMul(&pk.Delta, frNat(fr, k)))
		return acc
	}

	var (
		h      []field.Element
		proofA curve.PointAffine
		proofB pairing.G2Affine
		accB1  *curve.PointXYZZ
		sumK   *curve.PointXYZZ
		sumH   *curve.PointXYZZ
	)
	phases := []phase{
		{name: "quotient", run: func(ctx context.Context) (err error) {
			h, err = e.quotient(ctx, cs, pk.Domain, witness, nttWorkers)
			return err
		}},
		// A = α + Σ a_i·u_i(τ) + r·δ  (G1)
		{name: "msm-A", run: func(ctx context.Context) error {
			sumA, err := msmG1(ctx, PhaseA, pk.A, wScalars)
			if err != nil {
				return err
			}
			proofA = e.P.Curve.ToAffine(plusDelta(&pk.Alpha, sumA, r))
			return nil
		}},
		// B = β + Σ a_i·v_i(τ) + s·δ  (G2)
		{name: "msm-B2", run: func(ctx context.Context) error {
			sumB2, err := msmG2(ctx, pk.B2, big2)
			if err != nil {
				return err
			}
			g2 := e.P.G2
			withBeta := g2.Add(&sumB2, &pk.Beta2)
			sDelta2 := g2.ScalarMulFr(&pk.Delta2, fr, s)
			proofB = g2.Add(&withBeta, &sDelta2)
			return nil
		}},
		// B's G1 mirror: β + Σ a_i·v_i(τ) + s·δ over G1.
		{name: "msm-B1", run: func(ctx context.Context) error {
			sumB1, err := msmG1(ctx, PhaseB1, pk.B1, wScalars)
			if err != nil {
				return err
			}
			accB1 = plusDelta(&pk.Beta, sumB1, s)
			return nil
		}},
		{name: "msm-K", run: func(ctx context.Context) (err error) {
			sumK, err = msmG1(ctx, PhaseK, pk.K, privScalars)
			return err
		}},
		// The only phase downstream of the quotient.
		{name: "msm-Z", after: []int{0}, run: func(ctx context.Context) (err error) {
			sumH, err = msmG1(ctx, PhaseZ, pk.Z, quotientScalars(fr, pk, h))
			return err
		}},
	}
	if err := runPhases(ctx, phases, pr.Pipeline); err != nil {
		return nil, err
	}

	// C = Σ_priv a_i·K_i + Σ_j h_j·Z_j + s·A + r·B1 − r·s·δ
	adder := e.P.Curve.NewAdder()
	accC := sumK
	adder.Add(accC, sumH)
	adder.Add(accC, adder.ScalarMul(&proofA, frNat(fr, s)))
	b1Aff := e.P.Curve.ToAffine(accB1)
	adder.Add(accC, adder.ScalarMul(&b1Aff, frNat(fr, r)))
	rs := fr.NewElement()
	fr.Mul(rs, r, s)
	rsDelta := adder.ScalarMul(&pk.Delta, frNat(fr, rs))
	e.P.Curve.Neg(rsDelta)
	adder.Add(accC, rsDelta)

	return &Proof{A: proofA, B: proofB, C: e.P.Curve.ToAffine(accC)}, nil
}

// privateScalars masks the public-input prefix of the witness scalars
// with zeros (the msm-K column covers private variables only).
func privateScalars(fr *field.Field, cs *r1cs.System, witness []field.Element, scalars []bigint.Nat) []bigint.Nat {
	out := make([]bigint.Nat, len(witness))
	for i := range witness {
		if i <= cs.NPublic {
			out[i] = bigint.New(fr.Width())
		} else {
			out[i] = scalars[i]
		}
	}
	return out
}

// quotientScalars lifts the quotient coefficients onto the msm-Z column,
// zero-padding to len(pk.Z).
func quotientScalars(fr *field.Field, pk *ProvingKey, h []field.Element) []bigint.Nat {
	out := make([]bigint.Nat, len(pk.Z))
	for j := range pk.Z {
		if j < len(h) {
			out[j] = frNat(fr, h[j])
		} else {
			out[j] = bigint.New(fr.Width())
		}
	}
	return out
}

// quotient computes the coefficients of h(X) = (a(X)·b(X) − c(X))/t(X)
// via coset NTTs (t is constant on the coset: g^d − 1). Each of the
// seven transforms honours ctx between butterfly passes, so a cancel or
// deadline lands mid-quotient instead of after it. nttWorkers is the
// transforms' width: 1 runs them inline on the calling goroutine (the
// sequential schedule), anything else fans each pass out across that
// many workers (0 = GOMAXPROCS). The transform is one body at every
// width, so h does not depend on it.
func (e *Engine) quotient(ctx context.Context, cs *r1cs.System, d int, witness []field.Element, nttWorkers int) ([]field.Element, error) {
	fr := e.Fr
	dom, err := ntt.NewDomain(fr, d)
	if err != nil {
		return nil, err
	}
	evalA := zeroVec(fr, d)
	evalB := zeroVec(fr, d)
	evalC := zeroVec(fr, d)
	for q, con := range cs.Constraints {
		evalA[q].Set(cs.EvalLC(con.A, witness))
		evalB[q].Set(cs.EvalLC(con.B, witness))
		evalC[q].Set(cs.EvalLC(con.C, witness))
	}
	// To coefficients, then onto the coset.
	for _, v := range [][]field.Element{evalA, evalB, evalC} {
		if err := dom.ParallelInverseContext(ctx, v, nttWorkers); err != nil {
			return nil, err
		}
	}
	for _, v := range [][]field.Element{evalA, evalB, evalC} {
		if err := dom.ParallelCosetForwardContext(ctx, v, nttWorkers); err != nil {
			return nil, err
		}
	}
	// t(g·ω^j) = g^d − 1, a constant.
	zInv := fr.NewElement()
	fr.Exp(zInv, dom.Gen(), big.NewInt(int64(d)))
	fr.Sub(zInv, zInv, fr.One())
	fr.Inv(zInv, zInv)
	tmp := fr.NewElement()
	for j := 0; j < d; j++ {
		fr.Mul(tmp, evalA[j], evalB[j])
		fr.Sub(tmp, tmp, evalC[j])
		fr.Mul(evalA[j], tmp, zInv)
	}
	if err := dom.ParallelCosetInverseContext(ctx, evalA, nttWorkers); err != nil {
		return nil, err
	}
	// h has degree ≤ d−2: the top coefficient must vanish.
	if !evalA[d-1].IsZero() {
		return nil, fmt.Errorf("groth16: quotient degree overflow (unsatisfied witness?)")
	}
	return evalA[:d-1], nil
}

// publicCommitment returns IC[0] + Σ x_i·IC[i+1] over the public inputs
// (without the leading constant one).
func (e *Engine) publicCommitment(vk *VerifyingKey, public []field.Element) (curve.PointAffine, error) {
	if len(public)+1 != len(vk.IC) {
		return curve.PointAffine{}, fmt.Errorf("groth16: %d public inputs, key expects %d", len(public), len(vk.IC)-1)
	}
	adder := e.P.Curve.NewAdder()
	acc := e.P.Curve.NewXYZZ()
	e.P.Curve.SetAffine(acc, &vk.IC[0])
	for i, x := range public {
		term := adder.ScalarMul(&vk.IC[i+1], frNat(e.Fr, x))
		adder.Add(acc, term)
	}
	return e.P.Curve.ToAffine(acc), nil
}

// Verify checks the proof against the public inputs (without the leading
// constant one).
func (e *Engine) Verify(vk *VerifyingKey, proof *Proof, public []field.Element) (bool, error) {
	ic, err := e.publicCommitment(vk, public)
	if err != nil {
		return false, err
	}

	// e(−A, B)·e(IC, γ)·e(C, δ)·e(α, β) == 1: three pairs in one Miller
	// loop, times the key's cached e(α, β).
	negA := curve.PointAffine{X: proof.A.X.Clone(), Y: proof.A.Y.Clone(), Inf: proof.A.Inf}
	e.P.Curve.NegAffine(&negA)
	out, err := e.P.PairingProduct(
		[]curve.PointAffine{negA, ic, proof.C},
		[]pairing.G2Affine{proof.B, vk.Gamma2, vk.Delta2},
	)
	if err != nil {
		return false, err
	}
	ab := e.alphaBeta(vk)
	e.P.T.E12Mul(&out, &out, &ab)
	return e.P.T.E12IsOne(&out), nil
}
