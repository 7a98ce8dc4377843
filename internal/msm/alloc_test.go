package msm

import (
	"testing"

	"distmsm/internal/bigint"
)

// TestBatchAffineSumAllocFree: a warmed-up BatchAffineAccumulator must
// accumulate a full window with zero heap allocations — the bucket
// coordinates, insertion queues, slope denominators and batch-inversion
// scratch all live in its pre-sized pools.
func TestBatchAffineSumAllocFree(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n, s = 512, 8
	points := c.SamplePoints(n, 55)
	scalars := c.SampleScalars(n, 56)
	digits := digitsMatrix(c, scalars, Config{WindowSize: s, Signed: true}.resolve(n))
	nBuckets := 1<<(s-1) + 1

	acc := NewBatchAffineAccumulator(c, nBuckets)
	acc.Sum(points, digits[0]) // warm-up: sizes the queues
	if allocs := testing.AllocsPerRun(10, func() { acc.Sum(points, digits[1]) }); allocs != 0 {
		t.Errorf("warmed-up BatchAffineAccumulator.Sum allocates %.1f objects/op, want 0", allocs)
	}
}

// signedDigitsViaDigits is the signed recoding spelled over the unsigned
// Digits — the independent reference SignedDigitsInto is held to.
func signedDigitsViaDigits(k bigint.Nat, scalarBits, s int) []int32 {
	var out []int32
	carry := int64(0)
	for _, d := range Digits(k, scalarBits, s) {
		v := int64(d) + carry
		carry = 0
		if v > int64(1)<<(s-1) {
			v -= int64(1) << s
			carry = 1
		}
		out = append(out, int32(v))
	}
	if carry != 0 {
		out = append(out, 1)
	}
	return out
}

// TestSignedDigitsIntoReusesStorage: recoding many scalars through one
// destination yields exactly the Digits-based recoding (carry window
// included, stale tail never leaking through) without allocating.
func TestSignedDigitsIntoReusesStorage(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	scalars := c.SampleScalars(32, 57)
	for i := range scalars[0] {
		scalars[0][i] = ^uint64(0) // carries through every window
	}
	scalars[1] = scalars[1][:0:0] // zero scalar right after a full-length one
	for _, s := range []int{3, 10, 16} {
		var dst []int32
		for i, k := range scalars {
			want := signedDigitsViaDigits(k, 320, s)
			dst = SignedDigitsInto(dst, k, 320, s)
			if len(dst) != len(want) {
				t.Fatalf("s=%d scalar %d: %d digits, want %d", s, i, len(dst), len(want))
			}
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("s=%d scalar %d digit %d: %d, want %d", s, i, j, dst[j], want[j])
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, k := range scalars {
				dst = SignedDigitsInto(dst, k, 320, s)
			}
		}); allocs != 0 {
			t.Errorf("s=%d: SignedDigitsInto over a sized destination allocates %.1f objects/op, want 0", s, allocs)
		}
	}
}
