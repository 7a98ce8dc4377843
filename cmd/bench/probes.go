package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/ntt"
	"distmsm/internal/pairing"
)

// Micro probes time single calls into the lowest layers on inputs the
// bench generates from the run seed. Each reports the per-call time of
// the quietest of microBatches batches: interference only adds time.
const microBatches = 5

// perCallNS runs f calls times in batches and returns the nanoseconds
// per call of the fastest batch.
func perCallNS(calls int, f func()) float64 {
	per := max(1, calls/microBatches)
	best := math.Inf(1)
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return best
}

// medianSeconds runs f reps times and returns the median seconds.
func medianSeconds(reps int, f func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts), nil
}

// probeBigint times Montgomery.Mul/Square on c's base field; suffix is
// the limb count the curve's field resolves to ("4" or "6").
func probeBigint(o runOpts, c *curve.Curve, suffix string, m metrics) {
	rnd := rand.New(rand.NewSource(subSeed(o.seed, 100)))
	mont := c.Fp.Montgomery()
	x, y, z := c.Fp.Rand(rnd), c.Fp.Rand(rnd), c.Fp.NewElement()
	m["bigint.mul"+suffix+"_ns"] = perCallNS(o.reps(1000000), func() { mont.Mul(z, x, y) })
	m["bigint.sqr"+suffix+"_ns"] = perCallNS(o.reps(1000000), func() { mont.Square(z, x) })
}

// probeField times the BN254 base field: one multiplication, one
// inversion, and batch inversion per element.
func probeField(o runOpts, f *field.Field, m metrics) {
	rnd := rand.New(rand.NewSource(subSeed(o.seed, 101)))
	x, y, z := f.Rand(rnd), f.Rand(rnd), f.NewElement()
	m["field.mul_ns"] = perCallNS(o.reps(1000000), func() { f.Mul(z, x, y) })
	m["field.inv_ns"] = perCallNS(o.reps(5000), func() { f.Inv(z, x) })
	const batch = 256
	xs := make([]field.Element, batch)
	for i := range xs {
		xs[i] = f.Rand(rnd)
	}
	bi := f.NewBatchInverter(batch)
	m["field.batchinv_elem_ns"] = perCallNS(o.reps(500), func() { bi.Invert(xs) }) / batch
}

// paccNS times the dedicated point accumulation (affine into XYZZ) on c.
func paccNS(o runOpts, c *curve.Curve, points []curve.PointAffine) float64 {
	a := c.NewAdder()
	acc := c.NewXYZZ()
	c.SetAffine(acc, &points[0])
	i := 0
	return perCallNS(o.reps(200000), func() {
		i++
		a.Acc(acc, &points[1+i%(len(points)-1)])
	})
}

// probeCurve times the XYZZ group operations of BN254.
func probeCurve(o runOpts, c *curve.Curve, points []curve.PointAffine, m metrics) {
	m["curve.pacc_ns"] = paccNS(o, c, points)
	a := c.NewAdder()
	acc, other := c.NewXYZZ(), c.NewXYZZ()
	c.SetAffine(acc, &points[0])
	c.SetAffine(other, &points[1])
	a.Double(other) // a point with ZZ != 1, so Add takes the general path
	m["curve.padd_ns"] = perCallNS(o.reps(200000), func() { a.Add(acc, other) })
	m["curve.pdbl_ns"] = perCallNS(o.reps(200000), func() { a.Double(acc) })
	m["curve.to_affine_ns"] = perCallNS(o.reps(5000), func() { _ = c.ToAffine(acc) })
}

// probeNTT times transforms over the BN254 scalar field at 2^12.
func probeNTT(ctx context.Context, o runOpts, fr *field.Field, m metrics) error {
	const n = 1 << 12
	d, err := ntt.NewDomain(fr, n)
	if err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(subSeed(o.seed, 102)))
	a := make([]field.Element, n)
	for i := range a {
		a[i] = fr.Rand(rnd)
	}
	reps := o.reps(20)
	if m["ntt.forward_2p12_s"], err = medianSeconds(reps, func() error { return d.ForwardContext(ctx, a) }); err != nil {
		return err
	}
	if m["ntt.coset_roundtrip_2p12_s"], err = medianSeconds(reps, func() error {
		if err := d.CosetForwardContext(ctx, a); err != nil {
			return err
		}
		return d.CosetInverseContext(ctx, a)
	}); err != nil {
		return err
	}
	m["ntt.parallel_forward_2p12_s"], err = medianSeconds(reps, func() error { return d.ParallelForwardContext(ctx, a, 0) })
	return err
}

// probeTower times one Fp12 multiplication and one full pairing.
func probeTower(o runOpts, p *pairing.Pairing, m metrics) {
	rnd := rand.New(rand.NewSource(subSeed(o.seed, 103)))
	g1 := p.Curve.Gen
	e := p.Pair(&g1, &p.G2.Gen)
	f := p.T.E12One()
	p.T.E12Mul(&f, &e, &e)
	z := p.T.E12Zero()
	m["pairing.e12_mul_ns"] = perCallNS(o.reps(20000), func() { p.T.E12Mul(&z, &e, &f) })
	q := p.G2.ScalarMul(&p.G2.Gen, p.Fr.ToBig(p.Fr.Rand(rnd)))
	m["pairing.pairing_s"], _ = medianSeconds(o.reps(20), func() error { _ = p.Pair(&g1, &q); return nil })
}
