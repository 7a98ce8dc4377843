package msm

import (
	"distmsm/internal/curve"
	"distmsm/internal/field"
)

// Batch-affine bucket accumulation: points are added into buckets
// entirely in affine coordinates, amortising the modular inversion of
// the affine-addition slope across many buckets with Montgomery's
// batch-inversion trick — the "cheap affine additions" technique of the
// ZPrize single-GPU winners (§6: "lazy Montgomery reduction,
// precomputation, ..."). An affine addition costs 1M + 1S + (amortised)
// ~3M for the inversion versus the 10M of the XYZZ PACC, at the price of
// a scheduling constraint: each bucket can absorb at most one point per
// round.

// pendingRef is one queued insertion: point `idx` (negated when neg)
// into bucket `bucket`.
type pendingRef struct {
	bucket int32
	idx    int32
	neg    bool
}

// BatchAffineAccumulator owns every buffer the batch-affine bucket sum
// needs — the bucket array and its coordinate arena, the insertion
// queues, the per-round slope denominators and the batch-inversion
// scratch — so that after the first (warm-up) call a window is
// accumulated with zero heap allocations. Not safe for concurrent use;
// give each worker its own.
type BatchAffineAccumulator struct {
	c        *curve.Curve
	f        *field.Field
	nBuckets int

	buckets []curve.PointAffine // X/Y backed by arena
	arena   []uint64

	queue, next []pendingRef
	stamp       []int32 // stamp[b] == round ⇒ bucket b already took a point
	round       int32

	denoms   []field.Element // backed by denArena, one slot per bucket
	denArena []uint64
	ops      []pendingRef

	inverter *field.BatchInverter
	adder    *curve.Adder // fallback for doubling / cancellation edges

	lam, t, x3, y3, negY field.Element
	tmp                  *curve.PointXYZZ
}

// NewBatchAffineAccumulator returns an accumulator for nBuckets buckets
// on curve c.
func NewBatchAffineAccumulator(c *curve.Curve, nBuckets int) *BatchAffineAccumulator {
	f := c.Fp
	w := f.Width()
	b := &BatchAffineAccumulator{
		c:        c,
		f:        f,
		nBuckets: nBuckets,
		arena:    make([]uint64, 2*nBuckets*w),
		buckets:  make([]curve.PointAffine, nBuckets),
		stamp:    make([]int32, nBuckets),
		denoms:   make([]field.Element, 0, nBuckets),
		denArena: make([]uint64, nBuckets*w),
		ops:      make([]pendingRef, 0, nBuckets),
		inverter: f.NewBatchInverter(nBuckets),
		adder:    c.NewAdder(),
		lam:      f.NewElement(),
		t:        f.NewElement(),
		x3:       f.NewElement(),
		y3:       f.NewElement(),
		negY:     f.NewElement(),
		tmp:      c.NewXYZZ(),
	}
	for i := range b.buckets {
		base := b.arena[2*i*w:]
		b.buckets[i] = curve.PointAffine{
			X:   field.Element(base[0:w]),
			Y:   field.Element(base[w : 2*w]),
			Inf: true,
		}
	}
	return b
}

// Sum accumulates points into buckets according to digits (windowSum
// convention: 0 = skip, negative = negated point) and returns the bucket
// array in affine form. The returned slice and its coordinate storage
// are owned by the accumulator and are valid until the next Sum call.
func (b *BatchAffineAccumulator) Sum(points []curve.PointAffine, digits []int32) []curve.PointAffine {
	f := b.f
	for i := range b.buckets {
		b.buckets[i].Inf = true
	}
	b.queue = b.queue[:0]
	for i := range points {
		d := digits[i]
		if d == 0 || points[i].Inf {
			continue
		}
		neg := d < 0
		if neg {
			d = -d
		}
		b.queue = append(b.queue, pendingRef{bucket: d, idx: int32(i), neg: neg})
	}

	for len(b.queue) > 0 {
		// One round: pick at most one insertion per bucket.
		b.round++
		b.next = b.next[:0]
		b.denoms = b.denoms[:0]
		b.ops = b.ops[:0]
		w := f.Width()
		for _, p := range b.queue {
			if b.stamp[p.bucket] == b.round {
				b.next = append(b.next, p)
				continue
			}
			b.stamp[p.bucket] = b.round
			acc := &b.buckets[p.bucket]
			pt := &points[p.idx]
			if acc.Inf {
				// First insertion: plain copy into the arena-backed slot.
				acc.X.Set(pt.X)
				if p.neg {
					f.Neg(acc.Y, pt.Y)
				} else {
					acc.Y.Set(pt.Y)
				}
				acc.Inf = false
				continue
			}
			if acc.X.Equal(pt.X) {
				// Doubling or cancellation: route through the XYZZ adder
				// (rare; keeps the batch path simple and correct).
				b.edgeInsert(acc, pt, p.neg)
				continue
			}
			den := field.Element(b.denArena[len(b.denoms)*w : (len(b.denoms)+1)*w])
			f.Sub(den, pt.X, acc.X)
			b.denoms = append(b.denoms, den)
			b.ops = append(b.ops, p)
		}
		// Batch invert all slopes' denominators at once.
		b.inverter.Invert(b.denoms)
		for i, p := range b.ops {
			acc := &b.buckets[p.bucket]
			pt := &points[p.idx]
			// λ = (±y2 − y1)·(x2 − x1)⁻¹
			if p.neg {
				f.Add(b.t, pt.Y, acc.Y)
				f.Neg(b.t, b.t)
			} else {
				f.Sub(b.t, pt.Y, acc.Y)
			}
			f.Mul(b.lam, b.t, b.denoms[i])
			// x3 = λ² − x1 − x2 ; y3 = λ(x1 − x3) − y1
			f.Square(b.x3, b.lam)
			f.Sub(b.x3, b.x3, acc.X)
			f.Sub(b.x3, b.x3, pt.X)
			f.Sub(b.t, acc.X, b.x3)
			f.Mul(b.y3, b.lam, b.t)
			f.Sub(b.y3, b.y3, acc.Y)
			acc.X.Set(b.x3)
			acc.Y.Set(b.y3)
		}
		b.queue, b.next = b.next, b.queue
	}
	return b.buckets
}

// edgeInsert handles the equal-x edge (doubling or cancellation) through
// the XYZZ adder. It may allocate (via ToAffine's inversions); the edge
// needs two insertions of the same x-coordinate into one bucket, which
// random MSM inputs essentially never produce.
func (b *BatchAffineAccumulator) edgeInsert(acc *curve.PointAffine, pt *curve.PointAffine, neg bool) {
	f := b.f
	in := *pt
	if neg {
		f.Neg(b.negY, pt.Y)
		in = curve.PointAffine{X: pt.X, Y: b.negY}
	}
	b.c.SetAffine(b.tmp, acc)
	b.adder.Acc(b.tmp, &in)
	out := b.c.ToAffine(b.tmp)
	if out.Inf {
		acc.Inf = true
		return
	}
	acc.X.Set(out.X)
	acc.Y.Set(out.Y)
	acc.Inf = false
}

// BatchAffineSum accumulates points into nBuckets buckets with a fresh
// accumulator (one-shot form; hot paths should hold a
// BatchAffineAccumulator and call Sum to reuse its pools). digits follow
// the windowSum convention (0 = skip, negative = negated point).
func BatchAffineSum(c *curve.Curve, points []curve.PointAffine, digits []int32, nBuckets int) []curve.PointAffine {
	return NewBatchAffineAccumulator(c, nBuckets).Sum(points, digits)
}
