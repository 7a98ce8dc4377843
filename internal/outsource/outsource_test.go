package outsource

import (
	"math/big"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/msm"
)

func testCurve(t *testing.T) *curve.Curve {
	t.Helper()
	c, err := curve.ByName("BN254")
	if err != nil {
		t.Fatalf("curve: %v", err)
	}
	return c
}

// instance builds a deterministic MSM instance plus its true result.
func instance(t *testing.T, c *curve.Curve, n int, seed uint64) ([]curve.PointAffine, []bigint.Nat, *curve.PointXYZZ) {
	t.Helper()
	points := c.SamplePoints(n, seed)
	scalars := c.SampleScalars(n, int64(seed)+1)
	return points, scalars, c.MSMReference(points, scalars)
}

func TestHonestWorkerAccepted(t *testing.T) {
	c := testCurve(t)
	points, scalars, q := instance(t, c, 64, 3)
	ck, err := NewCheck(c, points, scalars, Params{}, NewSeededReader(7))
	if err != nil {
		t.Fatalf("NewCheck: %v", err)
	}
	// Honest worker: compute both instances faithfully.
	chal := c.MSMReference(points, ck.Challenge())
	if !ck.Verify(q, chal) {
		t.Fatal("honest claims rejected")
	}
}

// TestCheckCostIndependentOfN pins what makes the check cheaper than
// recomputing the MSM, without timing it: at every instance size the
// Check keeps exactly Params().MaskTerms base points, and Verify never
// reads the caller's base vector — it still accepts an honest claim
// after every point the caller passed in has been overwritten.
func TestCheckCostIndependentOfN(t *testing.T) {
	c := testCurve(t)
	for _, n := range []int{16, 4096} {
		points := c.SamplePoints(n, uint64(n))
		scalars := c.SampleScalars(n, int64(n)+1)
		ck, err := NewCheck(c, points, scalars, Params{}, NewSeededReader(uint64(n)))
		if err != nil {
			t.Fatalf("n=%d: NewCheck: %v", n, err)
		}
		if s := ck.Params().MaskTerms; s != DefaultMaskTerms || len(ck.maskPts) != s {
			t.Fatalf("n=%d: check keeps %d base points for MaskTerms %d, want %d",
				n, len(ck.maskPts), s, DefaultMaskTerms)
		}
		claim, err := msm.MSM(c, points, scalars, msm.Config{Signed: true})
		if err != nil {
			t.Fatal(err)
		}
		wide := *c
		wide.ScalarBits = ck.ChallengeBits()
		chal, err := msm.MSM(&wide, points, ck.Challenge(), msm.Config{Signed: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			for _, e := range []bigint.Nat{points[i].X, points[i].Y} {
				for w := range e {
					e[w] = ^uint64(0)
				}
			}
			points[i].Inf = true
		}
		if !ck.Verify(claim, chal) {
			t.Fatalf("n=%d: honest claim rejected once the caller's points were overwritten", n)
		}
	}
}

func TestCorruptClaimRejected(t *testing.T) {
	c := testCurve(t)
	points, scalars, q := instance(t, c, 64, 4)
	ck, err := NewCheck(c, points, scalars, Params{}, NewSeededReader(8))
	if err != nil {
		t.Fatalf("NewCheck: %v", err)
	}
	chal := c.MSMReference(points, ck.Challenge())
	a := c.NewAdder()

	// Corrupt the real claim only.
	badQ := q.Clone()
	a.Acc(badQ, &points[0])
	if ck.Verify(badQ, chal) {
		t.Fatal("corrupt real claim accepted")
	}
	// Corrupt the challenge claim only.
	badT := chal.Clone()
	a.Acc(badT, &points[1])
	if ck.Verify(q, badT) {
		t.Fatal("corrupt challenge claim accepted")
	}
	// Corrupt both (obliviously — the same perturbation on each side).
	if ck.Verify(badQ, badT) {
		t.Fatal("jointly corrupted claims accepted")
	}
	// nil claims are rejections, not panics.
	if ck.Verify(nil, chal) || ck.Verify(q, nil) {
		t.Fatal("nil claim accepted")
	}
}

// TestLazyWorkerCaughtByMask pins the sparse mask's purpose: a worker
// that consistently skips the same indices in both instances satisfies
// Δ_T = α·Δ_R automatically, and only the mask terms it dropped expose
// it. Skipping the whole second half of a 64-point instance must hit at
// least one of the 16 default mask terms for the seeds used here.
func TestLazyWorkerCaughtByMask(t *testing.T) {
	c := testCurve(t)
	points, scalars, _ := instance(t, c, 64, 5)
	ck, err := NewCheck(c, points, scalars, Params{}, NewSeededReader(9))
	if err != nil {
		t.Fatalf("NewCheck: %v", err)
	}
	half := len(points) / 2
	lazyQ := c.MSMReference(points[:half], scalars[:half])
	lazyT := c.MSMReference(points[:half], ck.Challenge()[:half])
	if ck.Verify(lazyQ, lazyT) {
		t.Fatal("half-lazy worker escaped the mask")
	}
}

// TestChallengeRelation pins the algebra the check relies on:
// MSM(P, y) == α·MSM(P, x) + Σ ρⱼ·P_{mⱼ} for honest evaluation, even
// for bases outside the prime-order subgroup (integer blinding).
func TestChallengeRelation(t *testing.T) {
	for _, name := range []string{"BN254", "BLS12-381"} {
		c, err := curve.ByName(name)
		if err != nil {
			t.Fatalf("curve %s: %v", name, err)
		}
		points, scalars, q := instance(t, c, 48, 11)
		ck, err := NewCheck(c, points, scalars, Params{Lambda: 32, MaskTerms: 4}, NewSeededReader(12))
		if err != nil {
			t.Fatalf("NewCheck: %v", err)
		}
		chal := c.MSMReference(points, ck.Challenge())
		if !ck.Verify(q, chal) {
			t.Fatalf("%s: challenge relation does not hold", name)
		}
	}
}

func TestChallengeWidthUniform(t *testing.T) {
	c := testCurve(t)
	points, scalars, _ := instance(t, c, 32, 6)
	ck, err := NewCheck(c, points, scalars, Params{}, NewSeededReader(10))
	if err != nil {
		t.Fatalf("NewCheck: %v", err)
	}
	want := (ck.ChallengeBits() + 63) / 64
	for i, y := range ck.Challenge() {
		if len(y) != want {
			t.Fatalf("challenge scalar %d has width %d limbs, want %d", i, len(y), want)
		}
		if y.BitLen() > ck.ChallengeBits() {
			t.Fatalf("challenge scalar %d is %d bits, cap %d", i, y.BitLen(), ck.ChallengeBits())
		}
	}
	if ck.ChallengeBits() < c.ScalarBits+DefaultLambda {
		t.Fatalf("ChallengeBits %d below ScalarBits+Lambda", ck.ChallengeBits())
	}
}

func TestParamValidation(t *testing.T) {
	c := testCurve(t)
	points, scalars, _ := instance(t, c, 8, 7)
	for _, p := range []Params{{Lambda: 4}, {Lambda: 300}, {MaskTerms: -1}} {
		if _, err := NewCheck(c, points, scalars, p, NewSeededReader(1)); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if _, err := NewCheck(c, points, scalars[:4], Params{}, NewSeededReader(1)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewCheck(c, nil, nil, Params{}, NewSeededReader(1)); err == nil {
		t.Fatal("empty instance accepted")
	}
	// MaskTerms clamps to n rather than failing.
	ck, err := NewCheck(c, points, scalars, Params{MaskTerms: 1000}, NewSeededReader(1))
	if err != nil {
		t.Fatalf("clamped mask: %v", err)
	}
	if got := ck.Params().MaskTerms; got != len(points) {
		t.Fatalf("MaskTerms clamped to %d, want %d", got, len(points))
	}
}

func TestSeededReaderDeterministic(t *testing.T) {
	a, b := NewSeededReader(42), NewSeededReader(42)
	bufA, bufB := make([]byte, 257), make([]byte, 257)
	if _, err := a.Read(bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatal(err)
	}
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatalf("seeded readers diverge at byte %d", i)
		}
	}
	other := NewSeededReader(43)
	bufC := make([]byte, 257)
	if _, err := other.Read(bufC); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range bufA {
		if bufA[i] != bufC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical streams")
	}
}

func TestMaskSumMatchesRefs(t *testing.T) {
	c := testCurve(t)
	points := c.SamplePoints(32, 13)
	m, err := NewMask(len(points), 6, NewSeededReader(14))
	if err != nil {
		t.Fatalf("NewMask: %v", err)
	}
	if len(m.Refs) != 6 {
		t.Fatalf("mask has %d refs, want 6", len(m.Refs))
	}
	// Reference: evaluate the signed sum with big-scalar machinery.
	a := c.NewAdder()
	want := c.NewXYZZ()
	one := bigint.FromBig(big.NewInt(1), 1)
	for _, ref := range m.Refs {
		if ref == 0 {
			t.Fatal("mask emitted the invalid ref 0")
		}
		idx := ref
		if idx < 0 {
			idx = -idx
		}
		p := points[idx-1]
		term := a.ScalarMul(&p, one)
		if ref < 0 {
			c.Neg(term)
		}
		a.Add(want, term)
	}
	got := m.Sum(c, points)
	if !c.EqualXYZZ(got, want) {
		t.Fatal("Mask.Sum disagrees with reference evaluation")
	}
}
