// Package ntt implements the number-theoretic transform over a prime
// field's 2-adic multiplicative subgroup — the second pillar of zkSNARK
// proof generation next to MSM (§5.1.1). It provides in-place forward and
// inverse transforms, coset transforms (needed by the Groth16 quotient
// polynomial), and polynomial helpers built on them.
//
// Every transform runs one body (parallel.go) with a width: the
// Parallel*Context forms fan each butterfly pass out across that many
// workers, and the plain *Context forms are the same body at width 1,
// run inline on the calling goroutine. The output does not depend on the
// width.
package ntt

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"

	"distmsm/internal/field"
)

// Domain is an evaluation domain of size N = 2^k with a precomputed
// primitive N-th root of unity.
type Domain struct {
	F *field.Field
	N int

	root    field.Element // ω, order N
	rootInv field.Element // ω⁻¹
	nInv    field.Element // N⁻¹
	// gen is the coset shift g (the field's smallest non-residue-based
	// generator works; any non-subgroup element does).
	gen    field.Element
	genInv field.Element
}

// NewDomain builds a size-n domain (n must be a power of two within the
// field's 2-adicity).
func NewDomain(f *field.Field, n int) (*Domain, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: domain size %d is not a power of two", n)
	}
	k := bits.TrailingZeros(uint(n))
	root, err := f.RootOfUnity(k)
	if err != nil {
		return nil, err
	}
	d := &Domain{F: f, N: n, root: root}
	d.rootInv = f.NewElement()
	f.Inv(d.rootInv, root)
	nEl := f.FromUint64(uint64(n))
	d.nInv = f.NewElement()
	f.Inv(d.nInv, nEl)
	// Pick a coset shift g with g^N ≠ 1, so the coset never meets the
	// subgroup (the quotient-polynomial division needs Z_H(g·ω^i) ≠ 0).
	gN := f.NewElement()
	for c := uint64(5); ; c += 2 {
		d.gen = f.FromUint64(c)
		f.Exp(gN, d.gen, big.NewInt(int64(n)))
		if !gN.Equal(f.One()) {
			break
		}
	}
	d.genInv = f.NewElement()
	f.Inv(d.genInv, d.gen)
	return d, nil
}

// ForwardContext computes the in-place NTT of a (natural order in,
// natural order out): a[j] ← Σ_i a[i]·ω^(ij), inline on the calling
// goroutine. It honours ctx between butterfly passes: a size-N transform
// checks the context log2(N)+1 times, so a cancellation or deadline
// lands within one pass (O(N) work) instead of waiting out the whole
// transform.
func (d *Domain) ForwardContext(ctx context.Context, a []field.Element) error {
	return d.ParallelForwardContext(ctx, a, 1)
}

// InverseContext computes the in-place inverse NTT inline, honouring ctx
// between butterfly passes (see ForwardContext).
func (d *Domain) InverseContext(ctx context.Context, a []field.Element) error {
	return d.ParallelInverseContext(ctx, a, 1)
}

// CosetForwardContext evaluates the polynomial on the coset g·⟨ω⟩ — it
// shifts the coefficients by powers of g, then transforms — inline,
// honouring ctx between butterfly passes (see ForwardContext).
func (d *Domain) CosetForwardContext(ctx context.Context, a []field.Element) error {
	return d.ParallelCosetForwardContext(ctx, a, 1)
}

// CosetInverseContext interpolates from the coset g·⟨ω⟩ back to
// coefficients inline, honouring ctx between butterfly passes (see
// ForwardContext).
func (d *Domain) CosetInverseContext(ctx context.Context, a []field.Element) error {
	return d.ParallelCosetInverseContext(ctx, a, 1)
}

// bitReverse applies the bit-reversal permutation to a, whose length is
// a power of two.
func bitReverse(a []field.Element) {
	shift := 64 - uint(bits.TrailingZeros(uint(len(a))))
	for i := range a {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// MulPolys multiplies two coefficient vectors via the NTT, returning a
// product of length d.N (the caller guarantees deg(a)+deg(b) < N).
func (d *Domain) MulPolys(a, b []field.Element) ([]field.Element, error) {
	if len(a) > d.N || len(b) > d.N {
		return nil, fmt.Errorf("ntt: operands exceed domain size")
	}
	f := d.F
	pa := make([]field.Element, d.N)
	pb := make([]field.Element, d.N)
	for i := range pa {
		pa[i] = f.NewElement()
		pb[i] = f.NewElement()
		if i < len(a) {
			pa[i].Set(a[i])
		}
		if i < len(b) {
			pb[i].Set(b[i])
		}
	}
	ctx := context.Background()
	for _, p := range [][]field.Element{pa, pb} {
		if err := d.ForwardContext(ctx, p); err != nil {
			return nil, err
		}
	}
	tmp := f.NewElement()
	for i := range pa {
		f.Mul(tmp, pa[i], pb[i])
		pa[i].Set(tmp)
	}
	if err := d.InverseContext(ctx, pa); err != nil {
		return nil, err
	}
	return pa, nil
}

// EvaluatePoly computes Σ coeffs[i]·x^i by Horner's rule (reference for
// property tests).
func EvaluatePoly(f *field.Field, coeffs []field.Element, x field.Element) field.Element {
	acc := f.NewElement()
	tmp := f.NewElement()
	for i := len(coeffs) - 1; i >= 0; i-- {
		f.Mul(tmp, acc, x)
		f.Add(acc, tmp, coeffs[i])
	}
	return acc
}

// Gen returns the coset shift g used by the coset transforms.
func (d *Domain) Gen() field.Element { return d.gen.Clone() }

// Root returns the domain's primitive N-th root of unity.
func (d *Domain) Root() field.Element { return d.root.Clone() }
