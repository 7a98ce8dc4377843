package core

import (
	"math/rand"
	"testing"

	"distmsm/internal/curve"
)

// The engine has one shard check, verifyShardChallenge. Its oracle lives
// here: an exact per-bucket recompute of the shard (sumBucketRange, then
// EqualXYZZ per bucket). The challenge check must accept exactly the
// claims the recompute accepts, for the clean claim and for every
// single-bucket perturbation of it.

// challengeWindow is the signed window size s of the shards below:
// 2^(s−1)+1 buckets, a few references per bucket over 64 points.
const challengeWindow = 4

// Perturbations of one claimed bucket accumulator.
const (
	perturbDouble  = iota // claim[b] ← 2·claim[b], what corruptShard does
	perturbAddBase        // claim[b] ← claim[b] + P_k
	perturbClear          // claim[b] ← identity (the bucket dropped)
	numPerturbations
)

// challengeBuckets scatters random signed window digits of len(points)
// scalars, seeded, into one window's buckets: the reference lists a
// shard of that window sums.
func challengeBuckets(t testing.TB, n int, seed int64) [][]int32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	half := int32(1) << (challengeWindow - 1)
	digits := make([]int32, n)
	for i := range digits {
		digits[i] = rng.Int31n(2*half+1) - half
	}
	sc, err := NaiveScatter(digits, int(half)+1)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Buckets
}

// shardSums is the exact claim of shard [lo, hi): every bucket summed by
// the engine's own kernel, indexed by absolute bucket.
func shardSums(t testing.TB, c *curve.Curve, points []curve.PointAffine, buckets [][]int32, lo, hi int) []*curve.PointXYZZ {
	t.Helper()
	out := make([]*curve.PointXYZZ, len(buckets))
	if _, err := sumBucketRange(c, points, buckets, lo, hi, out, newBucketScratch(c)); err != nil {
		t.Fatal(err)
	}
	return out
}

// recomputeVerdict is the oracle: it accepts claim iff every bucket of
// [lo, hi) equals the exact recompute (a nil accumulator is the
// identity on either side).
func recomputeVerdict(t testing.TB, c *curve.Curve, points []curve.PointAffine, buckets [][]int32, lo, hi int, claim []*curve.PointXYZZ) bool {
	t.Helper()
	ref := shardSums(t, c, points, buckets, lo, hi)
	for b := lo; b < hi; b++ {
		r, cl := ref[b], claim[b]
		if r == nil {
			r = c.NewXYZZ()
		}
		if cl == nil {
			cl = c.NewXYZZ()
		}
		if !c.EqualXYZZ(r, cl) {
			return false
		}
	}
	return true
}

// challengeVerdict runs the engine's shard check on claim, as the
// scheduler would for the seq-th execution of shard [lo, hi) under a
// fault seed.
func challengeVerdict(t testing.TB, c *curve.Curve, points []curve.PointAffine, buckets [][]int32, lo, hi int, claim []*curve.PointXYZZ, seed uint64, seq int) bool {
	t.Helper()
	e := &concExec{c: c, points: points, sched: &scheduler{seed: seed}}
	task := &shardTask{a: Assignment{BucketLo: lo, BucketHi: hi}}
	ok, err := e.verifyShardChallenge(task, seq, claim, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// perturb applies one perturbation to claim[b] in place (claim[b] may be
// nil, the identity).
func perturb(c *curve.Curve, points []curve.PointAffine, claim []*curve.PointXYZZ, b, kind, k int) {
	a := c.NewAdder()
	switch kind {
	case perturbDouble:
		if claim[b] != nil {
			a.Double(claim[b])
		}
	case perturbAddBase:
		if claim[b] == nil {
			claim[b] = c.NewXYZZ()
		}
		a.Acc(claim[b], &points[k%len(points)])
	case perturbClear:
		claim[b] = nil
	}
}

// checkShardChallenge holds the challenge check to the recompute oracle
// on shard [lo, hi): the clean claim is accepted by both, and the claim
// with bucket b perturbed gets the same verdict from both. It reports
// whether the perturbed claim was rejected.
func checkShardChallenge(t testing.TB, c *curve.Curve, points []curve.PointAffine, buckets [][]int32, lo, hi, b, kind, k int, seed uint64) bool {
	t.Helper()
	claim := shardSums(t, c, points, buckets, lo, hi)
	if !recomputeVerdict(t, c, points, buckets, lo, hi, claim) {
		t.Fatalf("%s [%d,%d): recompute rejects its own sums", c.Name, lo, hi)
	}
	if !challengeVerdict(t, c, points, buckets, lo, hi, claim, seed, 0) {
		t.Fatalf("%s [%d,%d) seed %d: challenge rejects the clean claim", c.Name, lo, hi, seed)
	}
	perturb(c, points, claim, b, kind, k)
	want := recomputeVerdict(t, c, points, buckets, lo, hi, claim)
	if got := challengeVerdict(t, c, points, buckets, lo, hi, claim, seed, 1); got != want {
		t.Fatalf("%s [%d,%d) bucket %d perturbation %d seed %d: challenge accepts=%v, recompute accepts=%v",
			c.Name, lo, hi, b, kind, seed, got, want)
	}
	return !want
}

// TestShardChallengeMatchesRecompute: on whole-window and split shards of
// both curves, every single-bucket perturbation gets the challenge
// verdict the exact recompute gives, and the clean claim passes.
func TestShardChallengeMatchesRecompute(t *testing.T) {
	for _, name := range []string{"BN254", "BLS12-381"} {
		c := mustCurve(t, name)
		points := c.SamplePoints(64, 71)
		buckets := challengeBuckets(t, len(points), 72)
		nb := len(buckets)
		rejected, checked := 0, 0
		for _, r := range [][2]int{{0, nb}, {1, nb / 2}, {nb / 2, nb}} {
			for b := r[0]; b < r[1]; b++ {
				for kind := 0; kind < numPerturbations; kind++ {
					if checkShardChallenge(t, c, points, buckets, r[0], r[1], b, kind, b+kind, uint64(b*numPerturbations+kind)) {
						rejected++
					}
					checked++
				}
			}
		}
		// Bucket 0 (digit 0) is always empty: doubling or clearing it is
		// no perturbation. Every other bucket holds references here.
		if rejected == 0 || rejected == checked {
			t.Errorf("%s: %d of %d perturbations rejected; the grid must contain both verdicts", name, rejected, checked)
		}
	}
}

// FuzzShardChallenge: over a fuzzer-chosen window scatter, shard, bucket,
// perturbation and challenge seed, the clean claim is accepted and the
// perturbed claim is rejected exactly when the recompute rejects it.
func FuzzShardChallenge(f *testing.F) {
	c := mustCurve(f, "BN254")
	points := c.SamplePoints(64, 73)
	f.Add(int64(1), uint8(0), uint8(8), uint8(3), uint8(perturbDouble), uint8(0), uint64(7))
	f.Add(int64(2), uint8(4), uint8(2), uint8(0), uint8(perturbAddBase), uint8(5), uint64(8))
	f.Add(int64(3), uint8(1), uint8(8), uint8(7), uint8(perturbClear), uint8(0), uint64(9))
	f.Fuzz(func(t *testing.T, digitSeed int64, lo, width, bucket, kind, k uint8, seed uint64) {
		buckets := challengeBuckets(t, len(points), digitSeed)
		nb := len(buckets)
		l := int(lo) % nb
		h := l + 1 + int(width)%(nb-l)
		b := l + int(bucket)%(h-l)
		checkShardChallenge(t, c, points, buckets, l, h, b, int(kind)%numPerturbations, int(k), seed)
	})
}
