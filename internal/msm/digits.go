// Package msm implements Pippenger's bucket algorithm for multi-scalar
// multiplication on the CPU: a serial reference, a parallel version
// (window- and bucket-dimension parallelism), signed-digit recoding and
// window precomputation. It is both a substrate for the simulated-GPU
// DistMSM scheduler in internal/core and the "single machine" baseline
// the paper's Figure 2 describes.
package msm

import (
	"fmt"

	"distmsm/internal/bigint"
)

// NumWindows returns ⌈λ/s⌉, the window count of Pippenger's algorithm.
func NumWindows(scalarBits, s int) int { return (scalarBits + s - 1) / s }

// Digits decomposes scalar into ⌈λ/s⌉ unsigned s-bit digits, least
// significant window first, so scalar = Σ digits[j] · 2^(j·s).
func Digits(scalar bigint.Nat, scalarBits, s int) []uint32 {
	if s < 1 || s > 31 {
		panic(fmt.Sprintf("msm: window size %d out of range [1,31]", s))
	}
	n := NumWindows(scalarBits, s)
	out := make([]uint32, n)
	for j := 0; j < n; j++ {
		width := s
		if rem := scalarBits - j*s; rem < s {
			width = rem
		}
		out[j] = uint32(scalar.Bits(j*s, width))
	}
	return out
}

// SignedDigits decomposes scalar into signed digits in
// (-2^(s-1), 2^(s-1)], least significant window first, so that
// scalar = Σ digits[j] · 2^(j·s). One extra window may be produced to
// absorb the final carry. Signed recoding halves the number of buckets
// (the negation of a point is free), a standard Pippenger optimisation
// used by the ZPrize winners and adopted by DistMSM.
func SignedDigits(scalar bigint.Nat, scalarBits, s int) []int32 {
	return SignedDigitsInto(nil, scalar, scalarBits, s)
}

// SignedDigitsInto is SignedDigits writing into dst's storage (grown
// when its capacity is below ⌈λ/s⌉+1) so a loop over many scalars
// recodes without allocating; the returned slice aliases dst.
func SignedDigitsInto(dst []int32, scalar bigint.Nat, scalarBits, s int) []int32 {
	if s < 1 || s > 31 {
		panic(fmt.Sprintf("msm: window size %d out of range [1,31]", s))
	}
	n := NumWindows(scalarBits, s)
	if cap(dst) < n+1 {
		dst = make([]int32, n+1)
	}
	dst = dst[:n+1]
	half := int64(1) << (s - 1)
	carry := int64(0)
	for j := 0; j < n; j++ {
		width := s
		if rem := scalarBits - j*s; rem < s {
			width = rem
		}
		v := int64(scalar.Bits(j*s, width)) + carry
		if v > half {
			dst[j] = int32(v - (int64(1) << s))
			carry = 1
		} else {
			dst[j] = int32(v)
			carry = 0
		}
	}
	dst[n] = int32(carry)
	if carry == 0 {
		dst = dst[:n]
	}
	return dst
}
