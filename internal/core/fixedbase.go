package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/msm"
	"distmsm/internal/telemetry"
)

// This file promotes the fixed-base precomputation (§2.3.1) from an
// internal/msm helper to a first-class engine strategy, selectable
// through Options.FixedBase. It runs the merged-window form: every
// window's digits scatter into ONE shared bucket array whose references
// index the flat table vector flat[j·base+i] = 2^(j·s)·B_i, so the whole
// MSM is a single-window plan — one bucket-reduce, no window-reduce
// doubling ladder — that the existing shard scheduler (retries, steals,
// speculation, verification, device loss) executes unchanged. The GLV
// endomorphism split (§2.3.2), with Options.GLV, is folded into the
// tables: the base vector doubles and the window count halves. There is
// no variable-base GLV strategy; at the host window it tied or lost to
// the plain plan at every measured n.
//
// The strategy is bit-identical to the plain serial reference: the
// per-bucket accumulation order is fixed by the scatter, buckets are
// never split across shards, and the final reduce is deterministic.

// FixedBase is an immutable per-window precomputation over a fixed
// base-point vector — the Groth16 proving-key columns, typically —
// optionally with the GLV endomorphism split folded into the tables.
// Build one with NewFixedBase and attach it to an execution with
// Options.FixedBase (distmsm.WithPrecomputedBases); one FixedBase is
// safe for concurrent use by any number of executions.
type FixedBase struct {
	c   *curve.Curve
	glv *msm.GLV // nil without the endomorphism split
	pre *msm.Precomputed

	n          int // caller base-vector length
	base       int // flat stride: n, or 2n with GLV
	s          int
	windows    int // signed window count (incl. carry) over scalarBits
	scalarBits int // effective scalar width the windows cover
	// flat[j·base+i] = 2^(j·s)·B_i: the virtual point vector the merged
	// single-window plan's bucket references index into.
	flat []curve.PointAffine
}

// NewFixedBase precomputes per-window tables for the base vector. The
// options honoured are WindowSize (0 picks the cheapest merged-window
// size for this length) and GLV (fold the endomorphism split into the
// tables — the base vector doubles, the window count halves; all points
// must lie in the prime-order subgroup). Signed-digit recoding is always
// used. The tables hold Windows()× the input storage; amortise them
// across many MSMs over the same bases.
func NewFixedBase(c *curve.Curve, points []curve.PointAffine, opts Options) (*FixedBase, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: precompute needs at least one base point", ErrEmptyInput)
	}
	if opts.Unsigned {
		return nil, fmt.Errorf("core: fixed-base tables require signed-digit recoding")
	}
	fb, err := fixedBaseGeometry(c, len(points), opts)
	if err != nil {
		return nil, err
	}
	basePts := points
	if fb.glv != nil {
		basePts = fb.glv.SplitPoints(points)
	}

	// The table builder sizes its columns from the curve's scalar width;
	// hand it the effective (possibly GLV-halved) width.
	cc := *c
	cc.ScalarBits = fb.scalarBits
	pre, err := msm.Precompute(&cc, basePts, msm.Config{WindowSize: fb.s, Signed: true})
	if err != nil {
		return nil, err
	}
	fb.pre = pre
	fb.flat = pre.Flatten()
	return fb, nil
}

// fixedBaseGeometry resolves the shape of the tables over an n-point
// base vector — GLV context, flat stride, effective scalar width, window
// size and count — into a FixedBase that lacks only the tables.
func fixedBaseGeometry(c *curve.Curve, n int, opts Options) (*FixedBase, error) {
	fb := &FixedBase{c: c, n: n, base: n, scalarBits: c.ScalarBits}
	if opts.GLV {
		g, err := glvContext(c)
		if err != nil {
			return nil, err
		}
		fb.glv = g
		fb.scalarBits = g.HalfBits() + 4
		fb.base = 2 * n
	}
	fb.s = opts.WindowSize
	if fb.s == 0 {
		fb.s = fixedBaseWindow(fb.base, fb.scalarBits)
	}
	if fb.s < 2 || fb.s > 26 {
		return nil, fmt.Errorf("core: fixed-base window size %d out of range", fb.s)
	}
	fb.windows = msm.NumWindows(fb.scalarBits, fb.s) + 1 // signed carry window
	return fb, nil
}

// FixedBaseBytes is the MemoryBytes of the tables NewFixedBase would
// build over an n-point base vector, without building them — what a
// cache consults before committing to a table it may not have room for.
func FixedBaseBytes(c *curve.Curve, n int, opts Options) (int64, error) {
	fb, err := fixedBaseGeometry(c, n, opts)
	if err != nil {
		return 0, err
	}
	return msm.TableBytes(c, fb.windows, fb.base), nil
}

// fixedBaseWindow picks s minimising the merged-window host work:
// base·⌈bits/s⌉ accumulations plus one 2·2^(s−1) running-suffix reduce.
func fixedBaseWindow(base, bits int) int {
	best, bestCost := 8, float64(0)
	for s := 4; s <= 20; s++ {
		cost := float64(base)*float64((bits+s-1)/s+1) + float64(int(2)<<(s-1))
		if bestCost == 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// WindowSize returns the precomputation's window size s.
func (fb *FixedBase) WindowSize() int { return fb.s }

// Windows returns the stored window-table count (the storage factor).
func (fb *FixedBase) Windows() int { return fb.windows }

// N returns the base-vector length scalars must match.
func (fb *FixedBase) N() int { return fb.n }

// GLV reports whether the endomorphism split is folded into the tables.
func (fb *FixedBase) GLV() bool { return fb.glv != nil }

// MemoryBytes estimates the table storage for admission budgeting.
func (fb *FixedBase) MemoryBytes() int64 { return fb.pre.MemoryBytes() }

// scatter builds the merged single-window bucket assignment for one
// scalar vector: digit d of window j of scalar i becomes the signed
// reference ±(j·base+i+1) in bucket |d| — all windows in one shared
// bucket array, exactly the §2.3.1 evaluation. The per-bucket reference
// order (scalars ascending, windows ascending within a scalar, GLV k1
// before k2) is what both engines replay, which keeps results
// bit-identical across engines and fault schedules.
func (fb *FixedBase) scatter(scalars []bigint.Nat) (*ScatterResult, error) {
	// Pass 1 recodes every scalar into one flat digit matrix — a row of
	// fb.windows digits per scalar (two per scalar with GLV: k1 then k2,
	// a negative half folded into its digits' signs) — and counts each
	// bucket's population, so pass 2 can place the references into one
	// exactly-sized arena instead of growing a slice per bucket.
	rows, w := len(scalars), fb.windows
	if fb.glv != nil {
		rows *= 2
	}
	digits := make([]int32, rows*w)
	cursor := make([]int32, 1<<(fb.s-1)+1)
	refs := 0
	recode := func(r int, k bigint.Nat, flip bool) {
		row := msm.SignedDigitsInto(digits[r*w:r*w:(r+1)*w], k, fb.scalarBits, fb.s)
		for j, d := range row {
			if d == 0 {
				continue
			}
			if flip {
				d = -d
				row[j] = d
			}
			if d < 0 {
				d = -d
			}
			cursor[d]++
			refs++
		}
	}
	for i, k := range scalars {
		if fb.glv == nil {
			recode(i, k, false)
			continue
		}
		k1, neg1, k2, neg2, err := fb.glv.DecomposeNat(k)
		if err != nil {
			return nil, err
		}
		recode(2*i, k1, neg1)
		recode(2*i+1, k2, neg2)
	}

	res := &ScatterResult{Buckets: make([][]int32, len(cursor))}
	res.Stats.Passes = 1
	res.Stats.GlobalAtomics = refs
	arena := make([]int32, refs)
	off := int32(0)
	for b := 1; b < len(cursor); b++ {
		end := off + cursor[b]
		res.Buckets[b] = arena[off:end:end]
		cursor[b] = off
		off = end
	}
	// Pass 2 places row r's window-j digit d as ±(j·base+idx+1) in bucket
	// |d|, rows ascending — the per-bucket order documented above.
	for r := 0; r < rows; r++ {
		idx := r
		if fb.glv != nil {
			idx = r/2 + r%2*fb.n
		}
		for j, d := range digits[r*w : (r+1)*w] {
			if d == 0 {
				continue
			}
			ref := int32(j*fb.base + idx + 1)
			if d < 0 {
				d, ref = -d, -ref
			}
			arena[cursor[d]] = ref
			cursor[d]++
		}
	}
	return res, nil
}

// buildFixedBasePlan schedules the merged single-window execution: one
// window of 2^(s−1)+1 signed buckets over the windows·base flat point
// vector, partitioned across the (health-admitted) GPUs exactly like any
// other plan — so the fault-tolerant scheduler composes unchanged.
func buildFixedBasePlan(cl *gpusim.Cluster, fb *FixedBase, opts Options) (*Plan, error) {
	p := &Plan{
		Curve:     fb.c,
		Cluster:   cl,
		N:         len(fb.flat),
		S:         fb.s,
		Signed:    true,
		Windows:   1,
		Buckets:   1<<(fb.s-1) + 1,
		FixedBase: fb,
	}
	return p.complete(opts, admit(cl))
}

// runFixedBase executes an MSM through the precomputed tables: scatter
// every window's digits into the shared bucket array, then run the
// selected engine over the merged single-window plan.
func runFixedBase(ctx context.Context, c *curve.Curve, cl *gpusim.Cluster, scalars []bigint.Nat, opts Options) (*Result, error) {
	fb := opts.FixedBase
	if fb.c.Name != c.Name {
		return nil, fmt.Errorf("core: precomputed bases are for %s, not %s", fb.c.Name, c.Name)
	}
	if len(scalars) != fb.n {
		return nil, fmt.Errorf("%w: %d scalars for %d precomputed bases", ErrLengthMismatch, len(scalars), fb.n)
	}
	if opts.WindowSize != 0 && opts.WindowSize != fb.s {
		return nil, fmt.Errorf("core: window size %d conflicts with tables precomputed at s=%d", opts.WindowSize, fb.s)
	}
	if opts.Unsigned {
		return nil, fmt.Errorf("core: fixed-base evaluation is signed-digit only")
	}
	if opts.GLV && fb.glv == nil {
		return nil, fmt.Errorf("core: WithGLV set but the tables were precomputed without the endomorphism split")
	}
	t0 := time.Now()
	sc, err := fb.scatter(scalars)
	if err != nil {
		return nil, err
	}
	scatterDur := time.Since(t0)
	if tr := opts.Tracer; tr != nil {
		tr.Record(telemetry.Span{Name: "scatter", Cat: "msm", Track: telemetry.TrackHost,
			Start: t0, Dur: scatterDur, Labeled: true, Window: 0})
	}
	plan, err := buildFixedBasePlan(cl, fb, opts)
	if err != nil {
		return nil, err
	}
	plan.Pre = []*ScatterResult{sc}
	res, err := execute(ctx, fb.flat, nil, plan, plan, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Phase.Scatter += scatterDur
	return res, nil
}

// glvCache memoises the per-curve GLV context (cube roots, endomorphism
// verification, lattice basis) — pure curve constants, safe to share.
var glvCache sync.Map // curve name -> *glvEntry

type glvEntry struct {
	once sync.Once
	g    *msm.GLV
	err  error
}

func glvContext(c *curve.Curve) (*msm.GLV, error) {
	v, _ := glvCache.LoadOrStore(c.Name, &glvEntry{})
	e := v.(*glvEntry)
	e.once.Do(func() { e.g, e.err = msm.NewGLV(c) })
	return e.g, e.err
}
