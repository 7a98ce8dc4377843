package msm

import (
	"fmt"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
)

// Precomputed holds the window-merging precomputation of §2.3.1: for each
// base point P_i the multiples 2^(j·s)·P_i are stored per window, so that
// "elliptic curve points from two different windows can be directly
// summed using a single PADD operation". The whole MSM then collapses to
// a single window's bucket sum — no window-reduce doublings at all — at
// the cost of ⌈λ/s⌉× point storage. This is the memory/compute trade the
// ZPrize winners (and Yrrid) use; DistMSM adopts it for fixed bases.
type Precomputed struct {
	c      *curve.Curve
	s      int
	signed bool
	// tables[j][i] = 2^(j·s)·P_i in affine form.
	tables [][]curve.PointAffine
}

// Precompute builds the per-window tables for a fixed base-point vector.
// Each column is produced with s doublings and normalised back to affine
// with batch inversions.
func Precompute(c *curve.Curve, points []curve.PointAffine, cfg Config) (*Precomputed, error) {
	cfg = cfg.resolve(len(points))
	s := cfg.WindowSize
	if s < 1 || s > 31 {
		return nil, fmt.Errorf("msm: precompute window %d out of range", s)
	}
	nWin := NumWindows(c.ScalarBits, s)
	if cfg.Signed {
		nWin++ // carry window
	}
	p := &Precomputed{c: c, s: s, signed: cfg.Signed, tables: make([][]curve.PointAffine, nWin)}
	p.tables[0] = points
	a := c.NewAdder()
	prev := points
	for j := 1; j < nWin; j++ {
		col := make([]*curve.PointXYZZ, len(points))
		for i := range points {
			acc := c.NewXYZZ()
			c.SetAffine(acc, &prev[i])
			for b := 0; b < s; b++ {
				a.Double(acc)
			}
			col[i] = acc
		}
		p.tables[j] = c.BatchToAffine(col)
		prev = p.tables[j]
	}
	return p, nil
}

// WindowSize returns the precomputation's window size s.
func (p *Precomputed) WindowSize() int { return p.s }

// Tables returns the number of stored point tables (the storage factor).
func (p *Precomputed) Tables() int { return len(p.tables) }

// N returns the base-vector length the tables were built for.
func (p *Precomputed) N() int { return len(p.tables[0]) }

// Signed reports whether the tables were sized for signed-digit recoding.
func (p *Precomputed) Signed() bool { return p.signed }

// Table returns window j's point column (table[j][i] = 2^(j·s)·P_i). The
// slice is shared, not copied — callers must treat it as read-only.
func (p *Precomputed) Table(j int) []curve.PointAffine { return p.tables[j] }

// Flatten concatenates the window tables into one point vector with
// flat[j·n+i] = 2^(j·s)·P_i — the layout of the merged single-window
// evaluation, where every window's digits scatter into one shared bucket
// array. Only the affine headers are copied; the field-element storage
// is shared with the tables.
func (p *Precomputed) Flatten() []curve.PointAffine {
	n := p.N()
	flat := make([]curve.PointAffine, len(p.tables)*n)
	for j, col := range p.tables {
		copy(flat[j*n:(j+1)*n], col)
	}
	return flat
}

// MemoryBytes estimates the table storage: two base-field coordinates per
// stored point. Column 0 aliases the caller's base vector but is counted
// anyway — a conservative figure for admission budgeting.
func (p *Precomputed) MemoryBytes() int64 { return TableBytes(p.c, len(p.tables), p.N()) }

// TableBytes is the MemoryBytes of `tables` window tables over n base
// points on c — the figure for tables not built yet.
func TableBytes(c *curve.Curve, tables, n int) int64 {
	limbBytes := int64((c.Fp.Bits()+63)/64) * 8
	return int64(tables) * int64(n) * 2 * limbBytes
}

// MSM computes Σ scalars[i]·P_i using the precomputed tables: all windows
// scatter into one shared bucket array, followed by a single bucket
// reduction and no doublings.
func (p *Precomputed) MSM(scalars []bigint.Nat) (*curve.PointXYZZ, error) {
	c := p.c
	if len(scalars) != len(p.tables[0]) {
		return nil, fmt.Errorf("msm: %d scalars for %d precomputed points", len(scalars), len(p.tables[0]))
	}
	nBuckets := 1 << p.s
	if p.signed {
		nBuckets = 1<<(p.s-1) + 1
	}
	buckets := make([]*curve.PointXYZZ, nBuckets)
	a := c.NewAdder()
	negY := c.Fp.NewElement()

	acc := func(d int32, pt *curve.PointAffine) {
		if d == 0 || pt.Inf {
			return
		}
		use := pt
		var neg curve.PointAffine
		if d < 0 {
			c.Fp.Neg(negY, pt.Y)
			neg = curve.PointAffine{X: pt.X, Y: negY}
			use = &neg
			d = -d
		}
		if buckets[d] == nil {
			buckets[d] = c.NewXYZZ()
		}
		a.Acc(buckets[d], use)
	}

	for i, k := range scalars {
		if p.signed {
			for j, d := range SignedDigits(k, c.ScalarBits, p.s) {
				if j >= len(p.tables) {
					return nil, fmt.Errorf("msm: scalar %d overflows precomputed windows", i)
				}
				acc(d, &p.tables[j][i])
			}
		} else {
			for j, d := range Digits(k, c.ScalarBits, p.s) {
				acc(int32(d), &p.tables[j][i])
			}
		}
	}

	running := c.NewXYZZ()
	total := c.NewXYZZ()
	for b := nBuckets - 1; b >= 1; b-- {
		if buckets[b] != nil {
			a.Add(running, buckets[b])
		}
		a.Add(total, running)
	}
	return total, nil
}
