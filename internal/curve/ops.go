package curve

import (
	"distmsm/internal/bigint"
	"distmsm/internal/field"
)

// Adder performs the elliptic-curve group operations of the paper —
// PADD (Algorithm 1), PACC (Algorithm 4) and PDBL — using a private set of
// scratch elements so the hot loops allocate nothing. An Adder is not safe
// for concurrent use; give each worker goroutine its own.
type Adder struct {
	c *Curve
	f *field.Field
	// scratch registers; the names mirror Algorithm 1/4.
	u1, u2, s1, s2, p, r, pp, ppp, q, v, t field.Element

	// Counts of the EC operations performed, used by the GPU cost model
	// when the simulator runs functionally.
	CountPADD, CountPACC, CountPDBL uint64
}

// NewAdder returns an Adder for curve c.
func (c *Curve) NewAdder() *Adder {
	f := c.Fp
	a := &Adder{c: c, f: f}
	regs := [...]*field.Element{
		&a.u1, &a.u2, &a.s1, &a.s2, &a.p, &a.r, &a.pp, &a.ppp, &a.q, &a.v, &a.t,
	}
	// One arena for all registers: engines build an adder per worker per
	// run, and eleven separate elements were most of a small run's allocs.
	w := f.Width()
	limbs := make([]uint64, len(regs)*w)
	for i, e := range regs {
		*e = field.Element(limbs[i*w : (i+1)*w : (i+1)*w])
	}
	return a
}

// ResetCounts zeroes the operation counters.
func (a *Adder) ResetCounts() { a.CountPADD, a.CountPACC, a.CountPDBL = 0, 0, 0 }

// Acc performs the dedicated point-accumulation operation of Algorithm 4:
// acc += p where p is affine (ZZ = ZZZ = 1), using 10 modular
// multiplications instead of PADD's 14. Doubling and cancellation edge
// cases are detected and handled.
func (a *Adder) Acc(acc *PointXYZZ, pt *PointAffine) {
	a.CountPACC++
	if pt.Inf {
		return
	}
	if acc.IsInf() {
		a.c.SetAffine(acc, pt)
		return
	}
	f := a.f
	f.Mul(a.u2, pt.X, acc.ZZ)  // U2 = X_P * ZZ_acc
	f.Mul(a.s2, pt.Y, acc.ZZZ) // S2 = Y_P * ZZZ_acc
	f.Sub(a.p, a.u2, acc.X)    // P = U2 - X_acc
	f.Sub(a.r, a.s2, acc.Y)    // R = S2 - Y_acc
	if a.p.IsZero() {
		if a.r.IsZero() {
			a.Double(acc)
			return
		}
		acc.SetInf() // acc == -P
		return
	}
	f.Square(a.pp, a.p)      // PP = P²
	f.Mul(a.ppp, a.pp, a.p)  // PPP = PP * P
	f.Mul(a.q, acc.X, a.pp)  // Q = X_acc * PP
	f.Square(a.v, a.r)       // V = R²
	f.Sub(a.v, a.v, a.ppp)   // V -= PPP
	f.Sub(a.v, a.v, a.q)     // V -= Q
	f.Sub(acc.X, a.v, a.q)   // X_acc' = V - Q
	f.Sub(a.t, a.q, acc.X)   // T = Q - X_acc'
	f.Mul(a.t, a.r, a.t)     // Y = R * T
	f.Mul(a.v, acc.Y, a.ppp) // T2 = Y_acc * PPP  (reuse v)
	f.Sub(acc.Y, a.t, a.v)   // Y_acc' = Y - T2
	f.Mul(acc.ZZ, acc.ZZ, a.pp)
	f.Mul(acc.ZZZ, acc.ZZZ, a.ppp)
}

// Add performs the general PADD of Algorithm 1: acc += q, both in XYZZ
// coordinates, using 14 modular multiplications.
func (a *Adder) Add(acc, q *PointXYZZ) {
	a.CountPADD++
	if q.IsInf() {
		return
	}
	if acc.IsInf() {
		acc.Set(q)
		return
	}
	f := a.f
	f.Mul(a.u1, acc.X, q.ZZ)  // U1 = X1 * ZZ2
	f.Mul(a.u2, q.X, acc.ZZ)  // U2 = X2 * ZZ1
	f.Mul(a.s1, acc.Y, q.ZZZ) // S1 = Y1 * ZZZ2
	f.Mul(a.s2, q.Y, acc.ZZZ) // S2 = Y2 * ZZZ1
	f.Sub(a.p, a.u2, a.u1)    // P = U2 - U1
	f.Sub(a.r, a.s2, a.s1)    // R = S2 - S1
	if a.p.IsZero() {
		if a.r.IsZero() {
			a.Double(acc)
			return
		}
		acc.SetInf()
		return
	}
	f.Square(a.pp, a.p)
	f.Mul(a.ppp, a.pp, a.p)
	f.Mul(a.q, a.u1, a.pp)
	f.Square(a.v, a.r)
	f.Sub(a.v, a.v, a.ppp)
	f.Sub(a.v, a.v, a.q)
	f.Sub(acc.X, a.v, a.q)  // X3 = R² - PPP - 2Q
	f.Sub(a.t, a.q, acc.X)  // T = Q - X3
	f.Mul(a.t, a.r, a.t)    // R*T
	f.Mul(a.v, a.s1, a.ppp) // S1*PPP
	f.Sub(acc.Y, a.t, a.v)  // Y3
	f.Mul(acc.ZZ, acc.ZZ, q.ZZ)
	f.Mul(acc.ZZ, acc.ZZ, a.pp)
	f.Mul(acc.ZZZ, acc.ZZZ, q.ZZZ)
	f.Mul(acc.ZZZ, acc.ZZZ, a.ppp)
}

// Double performs PDBL: acc = 2*acc, using the dbl-2008-s-1 XYZZ formulas.
// A point with Y = 0 (order two) correctly doubles to infinity.
func (a *Adder) Double(acc *PointXYZZ) {
	a.CountPDBL++
	if acc.IsInf() {
		return
	}
	f := a.f
	f.Double(a.u1, acc.Y)   // U = 2Y
	f.Square(a.v, a.u1)     // V = U²
	f.Mul(a.u2, a.u1, a.v)  // W = U*V
	f.Mul(a.s1, acc.X, a.v) // S = X*V
	f.Square(a.t, acc.X)    // X²
	f.Double(a.p, a.t)
	f.Add(a.t, a.t, a.p) // M = 3X² ...
	if !a.c.A.IsZero() {
		f.Square(a.r, acc.ZZ)
		f.Mul(a.r, a.r, a.c.A)
		f.Add(a.t, a.t, a.r) // ... + a*ZZ²
	}
	f.Square(a.q, a.t) // M²
	f.Sub(a.q, a.q, a.s1)
	f.Sub(a.q, a.q, a.s1) // X3 = M² - 2S
	f.Sub(a.r, a.s1, a.q) // S - X3
	f.Mul(a.r, a.t, a.r)  // M*(S-X3)
	f.Mul(a.s2, a.u2, acc.Y)
	f.Sub(acc.Y, a.r, a.s2) // Y3 = M*(S-X3) - W*Y
	acc.X.Set(a.q)
	f.Mul(acc.ZZ, acc.ZZ, a.v)
	f.Mul(acc.ZZZ, acc.ZZZ, a.u2)
}

// ScalarMul computes k*P by double-and-add (MSB first). It is the
// reference implementation that the Pippenger variants are tested against.
func (a *Adder) ScalarMul(pt *PointAffine, k bigint.Nat) *PointXYZZ {
	acc := a.c.NewXYZZ()
	for i := k.BitLen() - 1; i >= 0; i-- {
		a.Double(acc)
		if k.Bit(i) == 1 {
			a.Acc(acc, pt)
		}
	}
	return acc
}

// MSMReference computes Σ k_i·P_i naively (one scalar multiplication per
// term). O(N·λ) group operations — use only for small N in tests.
func (c *Curve) MSMReference(points []PointAffine, scalars []bigint.Nat) *PointXYZZ {
	a := c.NewAdder()
	acc := c.NewXYZZ()
	for i := range points {
		t := a.ScalarMul(&points[i], scalars[i])
		a.Add(acc, t)
	}
	return acc
}
