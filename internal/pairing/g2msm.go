package pairing

import (
	"context"
	"math/big"
)

// This file is the G2 counterpart of the §2.3.1 fixed-base evaluation:
// per-window tables 2^(j·s)·Q_i let every window's signed digits scatter
// into one shared bucket array, and a Jacobian-coordinate bucket reduce
// defers the (two-inversion) Fp2 normalisation to a single final
// ToAffine. The windowed g2.MSM above normalises every bucket and every
// running sum per window — thousands of Fp2 inversions per proof — so
// for the repeated proving-key B2 column this path is the difference
// between the G2 MSM dominating the proof and it disappearing into the
// noise.

// AddJac sets p += q for Jacobian q (add-2007-bl with edge handling).
func (g *G2) AddJac(p *G2Jacobian, q *G2Jacobian) {
	t := g.T
	if t.E2IsZero(&q.Z) {
		return
	}
	if t.E2IsZero(&p.Z) {
		*p = G2Jacobian{X: t.E2Clone(&q.X), Y: t.E2Clone(&q.Y), Z: t.E2Clone(&q.Z)}
		return
	}
	z1z1, z2z2 := t.E2Zero(), t.E2Zero()
	t.E2Square(&z1z1, &p.Z)
	t.E2Square(&z2z2, &q.Z)
	u1, u2, s1, s2 := t.E2Zero(), t.E2Zero(), t.E2Zero(), t.E2Zero()
	t.E2Mul(&u1, &p.X, &z2z2)
	t.E2Mul(&u2, &q.X, &z1z1)
	t.E2Mul(&s1, &p.Y, &q.Z)
	t.E2Mul(&s1, &s1, &z2z2)
	t.E2Mul(&s2, &q.Y, &p.Z)
	t.E2Mul(&s2, &s2, &z1z1)
	h, rr := t.E2Zero(), t.E2Zero()
	t.E2Sub(&h, &u2, &u1)
	t.E2Sub(&rr, &s2, &s1)
	if t.E2IsZero(&h) {
		if t.E2IsZero(&rr) {
			g.Double(p)
			return
		}
		*p = G2Jacobian{X: t.E2One(), Y: t.E2One(), Z: t.E2Zero()}
		return
	}
	t.E2Double(&rr, &rr) // r = 2(S2 − S1)
	i, j, v := t.E2Zero(), t.E2Zero(), t.E2Zero()
	t.E2Double(&i, &h)
	t.E2Square(&i, &i) // I = (2H)²
	t.E2Mul(&j, &h, &i)
	t.E2Mul(&v, &u1, &i)
	// Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
	t.E2Add(&p.Z, &p.Z, &q.Z)
	t.E2Square(&p.Z, &p.Z)
	t.E2Sub(&p.Z, &p.Z, &z1z1)
	t.E2Sub(&p.Z, &p.Z, &z2z2)
	t.E2Mul(&p.Z, &p.Z, &h)
	// X3 = r² − J − 2V
	x3 := t.E2Zero()
	t.E2Square(&x3, &rr)
	t.E2Sub(&x3, &x3, &j)
	t.E2Sub(&x3, &x3, &v)
	t.E2Sub(&x3, &x3, &v)
	// Y3 = r(V − X3) − 2·S1·J
	y3 := t.E2Zero()
	t.E2Sub(&v, &v, &x3)
	t.E2Mul(&y3, &rr, &v)
	t.E2Mul(&j, &s1, &j)
	t.E2Double(&j, &j)
	t.E2Sub(&y3, &y3, &j)
	t.E2Set(&p.X, &x3)
	t.E2Set(&p.Y, &y3)
}

// e2BatchInv inverts every non-zero element in place with the Montgomery
// trick: one E2Inv plus 3(n−1) multiplications.
func (g *G2) e2BatchInv(xs []*E2) {
	t := g.T
	live := xs[:0]
	for _, x := range xs {
		if !t.E2IsZero(x) {
			live = append(live, x)
		}
	}
	if len(live) == 0 {
		return
	}
	prefix := make([]E2, len(live))
	acc := t.E2One()
	for i, x := range live {
		prefix[i] = t.E2Clone(&acc)
		t.E2Mul(&acc, &acc, x)
	}
	inv := t.E2Zero()
	t.E2Inv(&inv, &acc)
	for i := len(live) - 1; i >= 0; i-- {
		tmp := t.E2Zero()
		t.E2Mul(&tmp, &inv, &prefix[i])
		t.E2Mul(&inv, &inv, live[i])
		t.E2Set(live[i], &tmp)
	}
}

// batchToAffine normalises a Jacobian column with one shared inversion.
func (g *G2) batchToAffine(col []G2Jacobian) []G2Affine {
	t := g.T
	zs := make([]*E2, len(col))
	zcopy := make([]E2, len(col))
	for i := range col {
		zcopy[i] = t.E2Clone(&col[i].Z)
		zs[i] = &zcopy[i]
	}
	g.e2BatchInv(zs)
	out := make([]G2Affine, len(col))
	for i := range col {
		if t.E2IsZero(&col[i].Z) {
			out[i] = G2Affine{Inf: true}
			continue
		}
		zInv2, zInv3 := t.E2Zero(), t.E2Zero()
		t.E2Square(&zInv2, &zcopy[i])
		t.E2Mul(&zInv3, &zInv2, &zcopy[i])
		out[i] = G2Affine{X: t.E2Zero(), Y: t.E2Zero()}
		t.E2Mul(&out[i].X, &col[i].X, &zInv2)
		t.E2Mul(&out[i].Y, &col[i].Y, &zInv3)
	}
	return out
}

// G2Precomputed holds per-window fixed-base tables over a G2 point
// vector: tables[j][i] = 2^(j·s)·Q_i. Immutable after construction and
// safe for concurrent MSM calls.
type G2Precomputed struct {
	g          *G2
	s          int
	scalarBits int
	tables     [][]G2Affine
}

// Precompute builds signed-digit fixed-base tables covering scalars of
// up to scalarBits bits with window size s (0 selects 8).
func (g *G2) Precompute(points []G2Affine, s, scalarBits int) *G2Precomputed {
	if s <= 0 {
		s = 8
	}
	nWin := (scalarBits+s-1)/s + 1 // +1: signed-digit carry window
	p := &G2Precomputed{g: g, s: s, scalarBits: scalarBits, tables: make([][]G2Affine, nWin)}
	p.tables[0] = points
	prev := points
	for j := 1; j < nWin; j++ {
		col := make([]G2Jacobian, len(points))
		for i := range points {
			col[i] = g.FromAffine(&prev[i])
			for b := 0; b < s; b++ {
				g.Double(&col[i])
			}
		}
		p.tables[j] = g.batchToAffine(col)
		prev = p.tables[j]
	}
	return p
}

// N returns the base-vector length scalars must match.
func (p *G2Precomputed) N() int { return len(p.tables[0]) }

// MemoryBytes estimates the table storage (four base-field coordinates
// per stored point; column 0 aliases the caller's vector but is counted).
func (p *G2Precomputed) MemoryBytes() int64 {
	return int64(len(p.tables)) * int64(p.N()) * 4 * 32
}

// signedDigitsBig recodes k into ⌈bits/s⌉+1 signed windows with digits
// in [−2^(s−1), 2^(s−1)−1] plus a trailing carry.
func signedDigitsBig(k *big.Int, bits, s int, out []int32) []int32 {
	nWin := (bits + s - 1) / s
	out = append(out[:0], make([]int32, nWin+1)...)
	half, full := 1<<(s-1), 1<<s
	carry := 0
	for j := 0; j < nWin; j++ {
		d := carry
		for b := 0; b < s; b++ {
			d += int(k.Bit(j*s+b)) << b
		}
		carry = 0
		if d >= half {
			d -= full
			carry = 1
		}
		out[j] = int32(d)
	}
	out[nWin] = int32(carry)
	return out
}

// MSMContext computes Σ k_i·Q_i through the tables: every window's
// signed digits accumulate into one shared bucket array (merged
// single-window evaluation — no doublings), and the running-suffix
// bucket reduce stays in Jacobian coordinates, so the whole MSM costs
// exactly one Fp2 inversion (the final normalisation). Scalars wider
// than the precomputed width are truncated — callers pass reduced field
// scalars. ctx is honoured every 64 scalars inside the scatter loop (the
// bucket reduce after it is O(2^(s-1)), too short to matter).
func (p *G2Precomputed) MSMContext(ctx context.Context, scalars []*big.Int) (G2Affine, error) {
	g := p.g
	t := g.T
	half := 1 << (p.s - 1)
	buckets := make([]*G2Jacobian, half+1)
	negY := t.E2Zero()
	var digits []int32
	for i, k := range scalars {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return G2Affine{Inf: true}, err
			}
		}
		digits = signedDigitsBig(k, p.scalarBits, p.s, digits)
		for j, d := range digits {
			if d == 0 {
				continue
			}
			pt := &p.tables[j][i]
			if pt.Inf {
				continue
			}
			use := pt
			var neg G2Affine
			if d < 0 {
				t.E2Neg(&negY, &pt.Y)
				neg = G2Affine{X: pt.X, Y: negY}
				use = &neg
				d = -d
			}
			if buckets[d] == nil {
				b := g.FromAffine(&G2Affine{Inf: true})
				buckets[d] = &b
			}
			g.AddMixed(buckets[d], use)
		}
	}
	running := g.FromAffine(&G2Affine{Inf: true})
	total := g.FromAffine(&G2Affine{Inf: true})
	for d := half; d >= 1; d-- {
		if buckets[d] != nil {
			g.AddJac(&running, buckets[d])
		}
		g.AddJac(&total, &running)
	}
	return g.ToAffine(&total), nil
}
