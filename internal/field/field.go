// Package field implements prime-field arithmetic in Montgomery form over
// internal/bigint. A Field wraps a Montgomery context and provides the
// group/field operations the curve and MSM layers need: addition,
// multiplication, exponentiation, (batch) inversion, square roots via
// p ≡ 3 (mod 4) or Tonelli–Shanks, and 2-adic roots of unity for the NTT.
package field

import (
	"fmt"
	"math/big"
	"math/rand"

	"distmsm/internal/bigint"
)

// Element is a field element in Montgomery form. Its width equals the
// owning Field's limb count; elements from different fields must not mix.
type Element = bigint.Nat

// Field is a prime field GF(p) with elements kept in Montgomery form.
type Field struct {
	Name    string
	Modulus *big.Int

	mont  *bigint.Montgomery
	width int

	// Tonelli–Shanks precomputation: p-1 = q * 2^s with q odd.
	twoAdicity int      // s
	qOdd       *big.Int // q
	nonResidue Element  // a quadratic non-residue, Montgomery form

	pPlus1Div4  *big.Int // (p+1)/4 when p ≡ 3 mod 4, else nil
	pMinus1Div2 *big.Int // (p-1)/2, for Legendre
}

// New constructs a field for the given odd prime modulus. Primality is the
// caller's responsibility; an even or tiny modulus is rejected.
func New(name string, modulus *big.Int) (*Field, error) {
	m, err := bigint.NewMontgomery(modulus)
	if err != nil {
		return nil, fmt.Errorf("field %s: %w", name, err)
	}
	f := &Field{
		Name:    name,
		Modulus: new(big.Int).Set(modulus),
		mont:    m,
		width:   m.Width(),
	}
	pm1 := new(big.Int).Sub(modulus, big.NewInt(1))
	f.pMinus1Div2 = new(big.Int).Rsh(pm1, 1)

	q := new(big.Int).Set(pm1)
	for q.Bit(0) == 0 {
		q.Rsh(q, 1)
		f.twoAdicity++
	}
	f.qOdd = q

	if new(big.Int).And(modulus, big.NewInt(3)).Int64() == 3 {
		f.pPlus1Div4 = new(big.Int).Rsh(new(big.Int).Add(modulus, big.NewInt(1)), 2)
	}

	// Find a quadratic non-residue for Tonelli–Shanks and NTT generators.
	for c := int64(2); ; c++ {
		e := f.FromUint64(uint64(c))
		if f.Legendre(e) == -1 {
			f.nonResidue = e
			break
		}
		if c > 1000 {
			return nil, fmt.Errorf("field %s: no small non-residue found (modulus not prime?)", name)
		}
	}
	return f, nil
}

// Width returns the limb count of field elements.
func (f *Field) Width() int { return f.width }

// Backend names the arithmetic backend the underlying Montgomery
// context dispatches to ("unrolled4", "unrolled6", or "generic").
func (f *Field) Backend() string { return f.mont.Backend() }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.Modulus.BitLen() }

// TwoAdicity returns s where p-1 = q*2^s with q odd.
func (f *Field) TwoAdicity() int { return f.twoAdicity }

// NewElement returns a zero element of the field.
func (f *Field) NewElement() Element { return bigint.New(f.width) }

// Zero returns a fresh zero element.
func (f *Field) Zero() Element { return f.NewElement() }

// One returns a fresh copy of the multiplicative identity.
func (f *Field) One() Element { return f.mont.One.Clone() }

// SetOne sets z to the multiplicative identity without allocating.
func (f *Field) SetOne(z Element) { z.Set(f.mont.One) }

// FromUint64 returns the Montgomery form of v.
func (f *Field) FromUint64(v uint64) Element {
	x := f.NewElement()
	x.SetUint64(v)
	z := f.NewElement()
	f.mont.ToMont(z, x)
	return z
}

// FromBig returns the Montgomery form of v mod p.
func (f *Field) FromBig(v *big.Int) Element {
	red := new(big.Int).Mod(v, f.Modulus)
	x := bigint.FromBig(red, f.width)
	z := f.NewElement()
	f.mont.ToMont(z, x)
	return z
}

// ToBig returns the plain (non-Montgomery) integer value of x.
func (f *Field) ToBig(x Element) *big.Int {
	z := f.NewElement()
	f.mont.FromMont(z, x)
	return z.ToBig()
}

// Rand returns a uniformly random element using rnd.
func (f *Field) Rand(rnd *rand.Rand) Element {
	return f.FromBig(new(big.Int).Rand(rnd, f.Modulus))
}

// Add sets z = x + y.
func (f *Field) Add(z, x, y Element) { f.mont.AddMod(z, x, y) }

// Sub sets z = x - y.
func (f *Field) Sub(z, x, y Element) { f.mont.SubMod(z, x, y) }

// Neg sets z = -x.
func (f *Field) Neg(z, x Element) { f.mont.NegMod(z, x) }

// Mul sets z = x * y through the width-dispatched Montgomery backend
// (unrolled fixed-limb kernels on 4- and 6-limb fields, generic CIOS
// otherwise). z may alias x or y.
func (f *Field) Mul(z, x, y Element) { f.mont.Mul(z, x, y) }

// Square sets z = x² with the dedicated Montgomery squaring (triangle +
// diagonal partial products, unrolled on 4/6-limb fields). z may alias x.
func (f *Field) Square(z, x Element) { f.mont.Square(z, x) }

// Double sets z = 2x.
func (f *Field) Double(z, x Element) { f.mont.AddMod(z, x, x) }

// IsZero reports whether x == 0.
func (f *Field) IsZero(x Element) bool { return x.IsZero() }

// Equal reports whether x == y.
func (f *Field) Equal(x, y Element) bool { return x.Equal(y) }

// Set copies y into z.
func (f *Field) Set(z, y Element) { z.Set(y) }

// Exp sets z = x^e for a non-negative big exponent, by square-and-multiply.
// z may alias x.
func (f *Field) Exp(z, x Element, e *big.Int) {
	if e.Sign() < 0 {
		panic("field: negative exponent")
	}
	acc, base, tmp := f.One(), x.Clone(), f.NewElement()
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			f.Mul(tmp, acc, base)
			acc, tmp = tmp, acc
		}
		f.Square(tmp, base)
		base, tmp = tmp, base
	}
	z.Set(acc)
}

// Inv sets z = x^-1 by binary extended GCD (bigint.Montgomery.Inv): no
// allocation at any width, variable-time. Inverting zero yields zero.
// Exp(x, p-2) is the fuzzed oracle (FuzzInvParity).
func (f *Field) Inv(z, x Element) { f.mont.Inv(z, x) }

// BatchInvert inverts every element of xs in place using Montgomery's
// trick: one inversion plus 3(n-1) multiplications. Zero entries stay zero.
func (f *Field) BatchInvert(xs []Element) {
	f.NewBatchInverter(len(xs)).Invert(xs)
}

// BatchInverter is the reusable-scratch form of BatchInvert: the prefix
// products, the registers and their limb backing are allocated once and
// reused across calls, so a warmed inverter performs zero allocations
// per Invert. Not safe for concurrent use; give each worker its own.
type BatchInverter struct {
	f      *Field
	prefix []Element // capacity slices into arena
	arena  []uint64
	// registers: running product, its inverse, swap scratch.
	acc, inv, tmp Element
}

// NewBatchInverter returns an inverter pre-sized for batches of up to
// `capacity` elements (it grows transparently if exceeded).
func (f *Field) NewBatchInverter(capacity int) *BatchInverter {
	bi := &BatchInverter{f: f, acc: f.NewElement(), inv: f.NewElement(), tmp: f.NewElement()}
	bi.grow(capacity)
	return bi
}

func (bi *BatchInverter) grow(n int) {
	if n <= len(bi.prefix) {
		return
	}
	w := bi.f.width
	bi.arena = make([]uint64, n*w)
	bi.prefix = make([]Element, n)
	for i := range bi.prefix {
		bi.prefix[i] = Element(bi.arena[i*w : (i+1)*w])
	}
}

// Invert inverts every element of xs in place; zero entries stay zero.
func (bi *BatchInverter) Invert(xs []Element) {
	n := len(xs)
	if n == 0 {
		return
	}
	bi.grow(n)
	f := bi.f
	f.SetOne(bi.acc)
	for i, x := range xs {
		bi.prefix[i].Set(bi.acc)
		if !x.IsZero() {
			f.Mul(bi.tmp, bi.acc, x)
			bi.acc.Set(bi.tmp)
		}
	}
	f.Inv(bi.inv, bi.acc)
	for i := n - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		f.Mul(bi.tmp, bi.inv, bi.prefix[i])
		f.Mul(bi.prefix[i], bi.inv, xs[i]) // reuse prefix[i] as scratch
		bi.inv.Set(bi.prefix[i])
		xs[i].Set(bi.tmp)
	}
}

// Legendre returns 1 if x is a nonzero square, -1 if a non-square, 0 if zero.
func (f *Field) Legendre(x Element) int {
	if x.IsZero() {
		return 0
	}
	z := f.NewElement()
	f.Exp(z, x, f.pMinus1Div2)
	if z.Equal(f.mont.One) {
		return 1
	}
	return -1
}

// Sqrt sets z to a square root of x and returns true, or returns false if
// x is a non-residue. Uses the p ≡ 3 (mod 4) shortcut when available and
// Tonelli–Shanks otherwise.
func (f *Field) Sqrt(z, x Element) bool {
	if x.IsZero() {
		z.SetZero()
		return true
	}
	if f.pPlus1Div4 != nil {
		cand := f.NewElement()
		f.Exp(cand, x, f.pPlus1Div4)
		check := f.NewElement()
		f.Square(check, cand)
		if !check.Equal(x) {
			return false
		}
		z.Set(cand)
		return true
	}
	return f.tonelliShanks(z, x)
}

func (f *Field) tonelliShanks(z, x Element) bool {
	if f.Legendre(x) != 1 {
		return false
	}
	// c = nonResidue^q has order 2^s.
	c := f.NewElement()
	f.Exp(c, f.nonResidue, f.qOdd)
	// t = x^q, r = x^((q+1)/2)
	t := f.NewElement()
	f.Exp(t, x, f.qOdd)
	r := f.NewElement()
	f.Exp(r, x, new(big.Int).Rsh(new(big.Int).Add(f.qOdd, big.NewInt(1)), 1))

	m := f.twoAdicity
	tmp := f.NewElement()
	for !t.Equal(f.mont.One) {
		// Find least i with t^(2^i) == 1.
		i := 0
		probe := t.Clone()
		for !probe.Equal(f.mont.One) {
			f.Square(tmp, probe)
			probe.Set(tmp)
			i++
			if i >= m {
				return false
			}
		}
		// b = c^(2^(m-i-1))
		b := c.Clone()
		for j := 0; j < m-i-1; j++ {
			f.Square(tmp, b)
			b.Set(tmp)
		}
		f.Mul(tmp, r, b)
		r.Set(tmp)
		f.Square(tmp, b)
		c.Set(tmp)
		f.Mul(tmp, t, c)
		t.Set(tmp)
		m = i
	}
	z.Set(r)
	return true
}

// RootOfUnity returns a primitive 2^k-th root of unity, or an error if the
// field's 2-adicity is insufficient.
func (f *Field) RootOfUnity(k int) (Element, error) {
	if k < 0 || k > f.twoAdicity {
		return nil, fmt.Errorf("field %s: no 2^%d-th root of unity (2-adicity %d)", f.Name, k, f.twoAdicity)
	}
	// nonResidue^q has order exactly 2^s; square down to order 2^k.
	w := f.NewElement()
	f.Exp(w, f.nonResidue, f.qOdd)
	tmp := f.NewElement()
	for i := 0; i < f.twoAdicity-k; i++ {
		f.Square(tmp, w)
		w.Set(tmp)
	}
	return w, nil
}

// Montgomery exposes the underlying Montgomery context (used by the
// tensor-core multiplier, which needs the raw modulus digits and n'0).
func (f *Field) Montgomery() *bigint.Montgomery { return f.mont }
