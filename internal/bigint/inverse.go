package bigint

import "math/bits"

// Modular inversion by Pornin's optimised binary extended GCD ("Optimized
// Binary GCD for Modular Inversion", 2020). Each outer round runs
// invSteps binary-GCD steps on 62-bit approximations of a and b (their
// low 30 and top 32 bits), collecting the steps as a 2×2 matrix of small
// signed factors, then applies that matrix once to the full-width a, b
// and to their Bézout coefficients u, v. So a 254-bit inversion is ~17
// full-width rounds instead of ~500 full-width steps. The rounds keep
// a ≡ u·x and b ≡ v·x (mod N); when a reaches 0, b = gcd = 1 and v = x⁻¹.
// Variable-time, like the rest of this prover.

// invSteps is the number of binary-GCD steps per outer round (Pornin's
// k−1 with k = 31): the approximations hold 30 + 32 bits, and the matrix
// factors stay within ±2^30, so a (f, g) row packs into one uint64.
const invSteps = 30

// Inv sets z = x⁻¹ for x in Montgomery form (so z = R²·x⁻¹ mod N, the
// Montgomery form of the inverse of the represented value): a binary
// extended GCD on the residue itself, finished by one Montgomery
// multiplication by R³. Inverting zero yields zero. z may alias x.
// Allocation-free for every width up to maxLimbs.
func (m *Montgomery) Inv(z, x Nat) {
	if x.IsZero() {
		z.SetZero()
		return
	}
	w := m.width
	var buf [6 * (maxLimbs + 1)]uint64
	s := buf[:]
	if 6*(w+1) > len(s) {
		s = make([]uint64, 6*(w+1))
	}
	a, b, u, v := Nat(s[:w]), Nat(s[w:2*w]), Nat(s[2*w:3*w]), Nat(s[3*w:4*w])
	t := s[4*w:]
	ta, tb := Nat(t[:w+1]), Nat(t[w+1:2*w+2])
	copy(a, x)
	copy(b, m.N)
	u.SetUint64(1)
	v.SetZero()
	const hiBits = invSteps + 2
	for !a.IsZero() {
		n := max(a.BitLen(), b.BitLen(), invSteps+hiBits) // exact once both fit 62 bits
		const lo = 1<<invSteps - 1
		f0, g0, f1, g1 := invInner(a[0]&lo|a.Bits(n-hiBits, hiBits)<<invSteps, b[0]&lo|b.Bits(n-hiBits, hiBits)<<invSteps)

		// (a, b) ← (a·f0 + b·g0, a·f1 + b·g1) / 2^30, both exact; a
		// negative result flips its sign and its matrix row.
		if combine(ta, a, b, f0, g0) {
			f0, g0 = -f0, -g0
		}
		if combine(tb, a, b, f1, g1) {
			f1, g1 = -f1, -g1
		}
		shrSteps(a, ta)
		shrSteps(b, tb)

		// (u, v) ← the same combinations of u, v, divided by 2^30 mod N.
		negU := combine(ta, u, v, f0, g0)
		negV := combine(tb, u, v, f1, g1)
		m.divSteps(u, ta, negU)
		m.divSteps(v, tb, negV)
	}
	m.MulCIOS(z, v, m.r3)
}

// invInner runs invSteps binary-GCD steps on the approximations a, b (b
// odd) and returns the matrix [[f0 g0] [f1 g1]] mapping the round's
// starting pair to 2^invSteps times its final pair. Each row (f, g) is
// kept packed as f + 2^32·g, which every step updates linearly. A
// subtraction and the halvings that follow it are one trip: a ← (a−b)/2^k
// for the k trailing zeros of a−b. The swap is branch-free; whether a < b
// is data-dependent and would mispredict half the time.
func invInner(a, b uint64) (f0, g0, f1, g1 int64) {
	r0, r1 := uint64(1), uint64(1)<<32
	i := min(bits.TrailingZeros64(a), invSteps)
	a >>= i
	r1 <<= i
	for i < invSteps {
		_, lt := bits.Sub64(a, b, 0)
		swap := -lt
		d := (a ^ b) & swap
		a ^= d
		b ^= d
		d = (r0 ^ r1) & swap
		r0 ^= d
		r1 ^= d
		a -= b
		r0 -= r1
		k := min(bits.TrailingZeros64(a), invSteps-i)
		a >>= k
		r1 <<= k
		i += k
	}
	f0 = int64(int32(r0))
	g0 = (int64(r0) - f0) >> 32
	f1 = int64(int32(r1))
	g1 = (int64(r1) - f1) >> 32
	return f0, g0, f1, g1
}

// combine sets t (one limb wider than x and y) to |x·f + y·g| and reports
// whether x·f + y·g is negative. One pass: both products' carries stay
// below 2^invSteps, so neither overflows a word.
func combine(t, x, y Nat, f, g int64) bool {
	w := len(x)
	y, t = y[:w], t[:w+1] // bounds-check elimination in the loop
	fa, ga := absInt(f), absInt(g)
	sub := (f < 0) != (g < 0)
	var cx, cy, k uint64
	for i := range x {
		hx, lx := bits.Mul64(x[i], fa)
		hy, ly := bits.Mul64(y[i], ga)
		var c uint64
		lx, c = bits.Add64(lx, cx, 0)
		cx = hx + c
		ly, c = bits.Add64(ly, cy, 0)
		cy = hy + c
		if sub {
			t[i], k = bits.Sub64(lx, ly, k)
		} else {
			t[i], k = bits.Add64(lx, ly, k)
		}
	}
	if !sub {
		t[w] = cx + cy + k
		return f < 0
	}
	t[w], k = bits.Sub64(cx, cy, k)
	if k != 0 { // |x·f| < |y·g|: the sum takes g's sign
		var borrow uint64
		for i := range t {
			t[i], borrow = bits.Sub64(0, t[i], borrow)
		}
		return g < 0
	}
	return f < 0
}

func absInt(f int64) uint64 {
	if f < 0 {
		return uint64(-f)
	}
	return uint64(f)
}

// shrSteps sets z = t / 2^invSteps for a t one limb wider than z whose
// quotient fits z.
func shrSteps(z, t Nat) {
	for i := range z {
		z[i] = t[i]>>invSteps | t[i+1]<<(64-invSteps)
	}
}

// divSteps sets z = ±t / 2^invSteps mod N (negated when neg) for a
// (w+1)-limb t ≤ 2^invSteps·N, by the Montgomery trick: adding q·N with
// q = −t·N⁻¹ mod 2^invSteps makes t exactly divisible, and the quotient
// is below 2N. t is clobbered.
func (m *Montgomery) divSteps(z, t Nat, neg bool) {
	w := m.width
	q := (t[0] * m.NPrime0) & (1<<invSteps - 1)
	var carry uint64
	for i := 0; i < w; i++ {
		hi, lo := bits.Mul64(q, m.N[i])
		var c uint64
		lo, c = bits.Add64(lo, t[i], 0)
		hi += c
		t[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	t[w] += carry
	shrSteps(t[:w], t)
	t[w] >>= invSteps
	if t[w] != 0 || t[:w].Cmp(m.N) >= 0 {
		SubInto(t[:w], t[:w], m.N)
	}
	copy(z, t[:w])
	if neg && !z.IsZero() {
		SubInto(z, m.N, z)
	}
}
