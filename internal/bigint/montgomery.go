package bigint

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Montgomery holds the precomputed constants for Montgomery modular
// arithmetic modulo an odd modulus N, with R = 2^(64*width).
//
// Three multiplication variants are provided — SOS (Separated Operand
// Scanning, Algorithm 2 in the paper), CIOS (Coarsely Integrated Operand
// Scanning) and FIOS (Finely Integrated Operand Scanning) — matching the
// family analysed by Koç, Acar and Kaliski. All three compute
// z = x*y*R^-1 mod N for x, y < N and agree bit-for-bit; CIOS is used by
// the hot paths and the others serve as cross-checks and benchmarks.
type Montgomery struct {
	N       Nat    // modulus, odd, highest limb nonzero
	NPrime0 uint64 // -N^-1 mod 2^64
	R2      Nat    // R^2 mod N (for conversion into Montgomery form)
	One     Nat    // R mod N   (the Montgomery representation of 1)
	r3      Nat    // R^3 mod N (Inv's final correction)
	width   int

	// Function-pointer dispatch, selected once at construction: the
	// width-specialised unrolled kernels when the modulus qualifies
	// (see unrolledOK), the generic loops otherwise. All hot callers
	// (field, curve, msm, ntt, pairing, groth16) go through Mul/Square/
	// AddMod/SubMod and pick up the fast path with no call-site changes.
	backend string
	mulFn   func(z, x, y Nat)
	sqrFn   func(z, x Nat)
	addFn   func(z, x, y Nat)
	subFn   func(z, x, y Nat)
}

// NewMontgomery builds a Montgomery context for the given odd modulus.
func NewMontgomery(modulus *big.Int) (*Montgomery, error) {
	if modulus.Sign() <= 0 || modulus.Bit(0) == 0 {
		return nil, fmt.Errorf("bigint: Montgomery modulus must be positive and odd, got %s", modulus)
	}
	width := (modulus.BitLen() + 63) / 64
	m := &Montgomery{N: FromBig(modulus, width), width: width}

	// NPrime0 = -N^-1 mod 2^64, via Newton iteration on the low limb.
	// inv := N[0] gives inv*N ≡ 1 mod 2^3 for odd N; each step doubles the
	// number of correct low bits.
	inv := m.N[0]
	for i := 0; i < 6; i++ { // 3 -> 6 -> 12 -> 24 -> 48 -> 96 bits (>= 64)
		inv *= 2 - m.N[0]*inv
	}
	m.NPrime0 = -inv

	r := new(big.Int).Lsh(big.NewInt(1), uint(width*64))
	m.One = FromBig(new(big.Int).Mod(r, modulus), width)
	r2 := new(big.Int).Mul(r, r)
	m.R2 = FromBig(r2.Mod(r2, modulus), width)
	r3 := new(big.Int).Mul(r2, r)
	m.r3 = FromBig(r3.Mod(r3, modulus), width)
	m.selectBackend()
	return m, nil
}

// selectBackend installs the arithmetic function pointers: the unrolled
// fixed-limb kernels for qualifying 4- and 6-limb moduli, the generic
// variable-width loops otherwise.
func (m *Montgomery) selectBackend() {
	m.backend = "generic"
	m.mulFn = m.MulCIOS
	m.sqrFn = m.SquareSOS
	m.addFn = m.addModGeneric
	m.subFn = m.subModGeneric
	if !unrolledOK(m.N) {
		return
	}
	np := m.NPrime0
	switch m.width {
	case 4:
		n := (*[4]uint64)(m.N)
		m.backend = "unrolled4"
		m.mulFn = func(z, x, y Nat) { mul4((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), n, np) }
		m.sqrFn = func(z, x Nat) { sqr4((*[4]uint64)(z), (*[4]uint64)(x), n, np) }
		m.addFn = func(z, x, y Nat) { add4((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), n) }
		m.subFn = func(z, x, y Nat) { sub4((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), n) }
	case 6:
		n := (*[6]uint64)(m.N)
		m.backend = "unrolled6"
		m.mulFn = func(z, x, y Nat) { mul6((*[6]uint64)(z), (*[6]uint64)(x), (*[6]uint64)(y), n, np) }
		m.sqrFn = func(z, x Nat) { sqr6((*[6]uint64)(z), (*[6]uint64)(x), n, np) }
		m.addFn = func(z, x, y Nat) { add6((*[6]uint64)(z), (*[6]uint64)(x), (*[6]uint64)(y), n) }
		m.subFn = func(z, x, y Nat) { sub6((*[6]uint64)(z), (*[6]uint64)(x), (*[6]uint64)(y), n) }
	}
}

// Backend names the arithmetic backend this context dispatches to:
// "unrolled4", "unrolled6", or "generic".
func (m *Montgomery) Backend() string { return m.backend }

// Mul sets z = x*y*R^-1 mod N through the selected backend. z may alias
// x or y. This is the multiplier every hot path should call; MulCIOS,
// MulSOS and MulFIOS remain as the generic cross-check variants.
func (m *Montgomery) Mul(z, x, y Nat) { m.mulFn(z, x, y) }

// Square sets z = x²·R^-1 mod N through the selected backend. z may
// alias x.
func (m *Montgomery) Square(z, x Nat) { m.sqrFn(z, x) }

// Width returns the limb count of the context.
func (m *Montgomery) Width() int { return m.width }

// reduceOnce conditionally subtracts N so that z < N, assuming z < 2N.
func (m *Montgomery) reduceOnce(z Nat, overflow uint64) {
	// Subtract when z >= N or when the addition overflowed past R.
	ge := uint64(0)
	if overflow != 0 || z.Cmp(m.N) >= 0 {
		ge = 1
	}
	CondSubInto(z, z, m.N, ge)
}

// MulCIOS sets z = x*y*R^-1 mod N using Coarsely Integrated Operand
// Scanning. z may alias x or y (the product is accumulated in a local
// buffer and copied out). This is the default multiplier.
func (m *Montgomery) MulCIOS(z, x, y Nat) {
	w := m.width
	if w > maxLimbs {
		m.mulCIOSLarge(z, x, y)
		return
	}
	// t has w+2 limbs conceptually; we keep the top two in scalars.
	// The declaration zero-initialises t on every call, so no explicit
	// clearing is needed on exit.
	var t [maxLimbs + 1]uint64
	var tHigh uint64
	for i := 0; i < w; i++ {
		// t += x[i] * y
		var carry uint64
		xi := x[i]
		for j := 0; j < w; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var c uint64
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j] = lo
			carry = hi
		}
		var c uint64
		t[w], c = bits.Add64(t[w], carry, 0)
		tHigh += c

		// u = t[0] * N'0; t += u*N; t >>= 64
		u := t[0] * m.NPrime0
		hi, lo := bits.Mul64(u, m.N[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < w; j++ {
			hi, lo = bits.Mul64(u, m.N[j])
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j-1] = lo
			carry = hi
		}
		t[w-1], c = bits.Add64(t[w], carry, 0)
		t[w] = tHigh + c
		tHigh = 0
	}
	copy(z, t[:w])
	m.reduceOnce(z, t[w])
}

// maxLimbs is the largest width served by the stack-allocated fast path;
// 12 limbs covers the 753-bit MNT4753-class fields.
const maxLimbs = 13

// mulCIOSLarge is the allocation-based fallback for very wide moduli.
func (m *Montgomery) mulCIOSLarge(z, x, y Nat) {
	w := m.width
	t := make(Nat, w+1)
	var tHigh uint64
	for i := 0; i < w; i++ {
		var carry uint64
		xi := x[i]
		for j := 0; j < w; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var c uint64
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j] = lo
			carry = hi
		}
		var c uint64
		t[w], c = bits.Add64(t[w], carry, 0)
		tHigh += c

		u := t[0] * m.NPrime0
		hi, lo := bits.Mul64(u, m.N[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < w; j++ {
			hi, lo = bits.Mul64(u, m.N[j])
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j-1] = lo
			carry = hi
		}
		t[w-1], c = bits.Add64(t[w], carry, 0)
		t[w] = tHigh + c
		tHigh = 0
	}
	copy(z, t[:w])
	m.reduceOnce(z, t[w])
}

// MulSOS sets z = x*y*R^-1 mod N using Separated Operand Scanning —
// the method shown as Algorithm 2 in the paper: a full double-width
// product first, then a separate reduction pass. z may alias x or y.
func (m *Montgomery) MulSOS(z, x, y Nat) {
	w := m.width
	t := make(Nat, 2*w+1)
	// Step 1: t = x * y (full 2w-limb product).
	MulInto(t[:2*w], x, y)
	// Step 2: for each low limb, u = t[i]*N'0; t += u*N << (64i).
	for i := 0; i < w; i++ {
		u := t[i] * m.NPrime0
		var carry uint64
		for j := 0; j < w; j++ {
			hi, lo := bits.Mul64(u, m.N[j])
			var c uint64
			lo, c = bits.Add64(lo, t[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[i+j] = lo
			carry = hi
		}
		// Propagate the carry through the rest of t.
		for k := i + w; carry != 0 && k < len(t); k++ {
			t[k], carry = bits.Add64(t[k], carry, 0)
		}
	}
	// Step 3: z = t >> (64w), with a final conditional subtraction.
	copy(z, t[w:2*w])
	m.reduceOnce(z, t[2*w])
}

// MulFIOS sets z = x*y*R^-1 mod N using Finely Integrated Operand
// Scanning: the multiplication and reduction inner loops are fused.
// z may alias x or y.
func (m *Montgomery) MulFIOS(z, x, y Nat) {
	w := m.width
	t := make(Nat, w+2)
	for i := 0; i < w; i++ {
		// First column: t[0] + x[i]*y[0] determines u.
		hi, lo := bits.Mul64(x[i], y[0])
		var c uint64
		sum, c := bits.Add64(t[0], lo, 0)
		carryMul := hi + c
		u := sum * m.NPrime0
		hi2, lo2 := bits.Mul64(u, m.N[0])
		_, c = bits.Add64(sum, lo2, 0)
		carryRed := hi2 + c
		// Remaining columns, fusing x[i]*y[j] and u*N[j].
		for j := 1; j < w; j++ {
			hi, lo = bits.Mul64(x[i], y[j])
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carryMul, 0)
			hi += c
			carryMul = hi

			hi2, lo2 = bits.Mul64(u, m.N[j])
			lo2, c = bits.Add64(lo2, lo, 0)
			hi2 += c
			lo2, c = bits.Add64(lo2, carryRed, 0)
			hi2 += c
			carryRed = hi2
			t[j-1] = lo2
		}
		var c2 uint64
		t[w-1], c2 = bits.Add64(carryMul, carryRed, 0)
		t[w-1], c = bits.Add64(t[w-1], t[w], 0)
		t[w] = t[w+1] + c + c2
		t[w+1] = 0
	}
	copy(z, t[:w])
	m.reduceOnce(z, t[w])
}

// AddMod sets z = x + y mod N (operands already reduced) through the
// selected backend.
func (m *Montgomery) AddMod(z, x, y Nat) { m.addFn(z, x, y) }

// SubMod sets z = x - y mod N (operands already reduced) through the
// selected backend.
func (m *Montgomery) SubMod(z, x, y Nat) { m.subFn(z, x, y) }

// addModGeneric is the variable-width modular addition.
func (m *Montgomery) addModGeneric(z, x, y Nat) {
	carry := AddInto(z, x, y)
	m.reduceOnce(z, carry)
}

// subModGeneric is the variable-width modular subtraction.
func (m *Montgomery) subModGeneric(z, x, y Nat) {
	borrow := SubInto(z, x, y)
	// If we borrowed, add N back.
	mask := -borrow
	var carry uint64
	for i := range z {
		z[i], carry = bits.Add64(z[i], m.N[i]&mask, carry)
	}
}

// NegMod sets z = -x mod N.
func (m *Montgomery) NegMod(z, x Nat) {
	if x.IsZero() {
		z.SetZero()
		return
	}
	SubInto(z, m.N, x)
}

// ToMont converts x (a plain residue < N) to Montgomery form.
func (m *Montgomery) ToMont(z, x Nat) { m.Mul(z, x, m.R2) }

// FromMont converts x from Montgomery form back to a plain residue.
func (m *Montgomery) FromMont(z, x Nat) {
	one := New(m.width)
	one[0] = 1
	m.Mul(z, x, one)
}
