package pairing

import (
	"context"
	"math/big"
	"slices"
)

// This file is the G2 counterpart of the §2.3.1 fixed-base evaluation:
// per-window tables 2^(j·s)·Q_i let every window's signed digits scatter
// into one shared bucket array, and a Jacobian-coordinate bucket reduce
// defers the Fp2 normalisation to a single final ToAffine. The same
// bucket reduce (sumBuckets) serves the uncached Horner MSM in g2.go;
// what the tables buy is the doubling ladder: every window's digits land
// in one bucket array, so the reduce runs once instead of once per
// window.

// AddJac sets p += q for Jacobian q (add-2007-bl with edge handling).
func (g *G2) AddJac(p *G2Jacobian, q *G2Jacobian) {
	t := g.T
	if t.E2IsZero(&q.Z) {
		return
	}
	if t.E2IsZero(&p.Z) {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, rr E2
	t.E2Square(&z1z1, &p.Z)
	t.E2Square(&z2z2, &q.Z)
	t.E2Mul(&u1, &p.X, &z2z2)
	t.E2Mul(&u2, &q.X, &z1z1)
	t.E2Mul(&s1, &p.Y, &q.Z)
	t.E2Mul(&s1, &s1, &z2z2)
	t.E2Mul(&s2, &q.Y, &p.Z)
	t.E2Mul(&s2, &s2, &z1z1)
	t.E2Sub(&h, &u2, &u1)
	t.E2Sub(&rr, &s2, &s1)
	if t.E2IsZero(&h) {
		if t.E2IsZero(&rr) {
			g.Double(p)
			return
		}
		*p = G2Jacobian{}
		return
	}
	t.E2Double(&rr, &rr) // r = 2(S2 − S1)
	var i, j, v E2
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
	t.E2Square(&p.X, &rr)
	t.E2Sub(&p.X, &p.X, &j)
	t.E2Sub(&p.X, &p.X, &v)
	t.E2Sub(&p.X, &p.X, &v)
	// Y3 = r(V − X3) − 2·S1·J
	t.E2Sub(&v, &v, &p.X)
	t.E2Mul(&p.Y, &rr, &v)
	t.E2Mul(&j, &s1, &j)
	t.E2Double(&j, &j)
	t.E2Sub(&p.Y, &p.Y, &j)
}

// addSigned files q under a signed digit d: into buckets[d−1] for d > 0,
// negated into buckets[−d−1] for d < 0.
func (g *G2) addSigned(buckets []G2Jacobian, q *G2Affine, d int32) {
	switch {
	case d > 0:
		g.AddMixed(&buckets[d-1], q)
	case d < 0:
		neg := G2Affine{X: q.X, Inf: q.Inf}
		g.T.E2Neg(&neg.Y, &q.Y)
		g.AddMixed(&buckets[-d-1], &neg)
	}
}

// sumBuckets returns Σ_d d·buckets[d−1] by the running-suffix sum, in
// Jacobian coordinates throughout: the bucket reduce both G2 MSMs share.
func (g *G2) sumBuckets(buckets []G2Jacobian) G2Jacobian {
	var running, total G2Jacobian
	for d := len(buckets) - 1; d >= 0; d-- {
		g.AddJac(&running, &buckets[d])
		g.AddJac(&total, &running)
	}
	return total
}

// e2BatchInv inverts every non-zero element in place with the Montgomery
// trick: one E2Inv plus 3(n−1) multiplications.
func (g *G2) e2BatchInv(xs []E2) {
	t := g.T
	prefix := make([]E2, len(xs))
	acc := t.E2One()
	for i := range xs {
		prefix[i] = acc
		if !t.E2IsZero(&xs[i]) {
			t.E2Mul(&acc, &acc, &xs[i])
		}
	}
	t.E2Inv(&acc, &acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if t.E2IsZero(&xs[i]) {
			continue
		}
		var inv E2
		t.E2Mul(&inv, &acc, &prefix[i])
		t.E2Mul(&acc, &acc, &xs[i])
		xs[i] = inv
	}
}

// batchToAffine normalises a Jacobian column with one shared inversion.
func (g *G2) batchToAffine(col []G2Jacobian) []G2Affine {
	t := g.T
	zInv := make([]E2, len(col))
	for i := range col {
		zInv[i] = col[i].Z
	}
	g.e2BatchInv(zInv)
	out := make([]G2Affine, len(col))
	for i := range col {
		if t.E2IsZero(&col[i].Z) {
			out[i] = G2Affine{Inf: true}
			continue
		}
		var zInv2, zInv3 E2
		t.E2Square(&zInv2, &zInv[i])
		t.E2Mul(&zInv3, &zInv2, &zInv[i])
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
	out = slices.Grow(out[:0], nWin+1)[:nWin+1]
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
	buckets := make([]G2Jacobian, 1<<(p.s-1))
	var digits []int32
	for i, k := range scalars {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return G2Affine{Inf: true}, err
			}
		}
		digits = signedDigitsBig(k, p.scalarBits, p.s, digits)
		for j, d := range digits {
			g.addSigned(buckets, &p.tables[j][i], d)
		}
	}
	sum := g.sumBuckets(buckets)
	return g.ToAffine(&sum), nil
}
