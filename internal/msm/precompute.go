package msm

import (
	"fmt"

	"distmsm/internal/curve"
)

// Precomputed holds the window-merging precomputation of §2.3.1: for each
// base point P_i the multiples 2^(j·s)·P_i are stored per window, so that
// "elliptic curve points from two different windows can be directly
// summed using a single PADD operation". The whole MSM then collapses to
// a single window's bucket sum — no window-reduce doublings at all — at
// the cost of ⌈λ/s⌉× point storage. This is the memory/compute trade the
// ZPrize winners (and Yrrid) use; DistMSM adopts it for fixed bases,
// evaluating the Flatten layout in core's fixed-base strategy.
type Precomputed struct {
	c *curve.Curve
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
	p := &Precomputed{c: c, tables: make([][]curve.PointAffine, nWin)}
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

// N returns the base-vector length the tables were built for.
func (p *Precomputed) N() int { return len(p.tables[0]) }

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
