package core

import (
	"context"
	"reflect"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/msm"
)

// appendScatter is the fixed-base scatter spelled the obvious way — one
// growing slice per bucket, scalars ascending, windows ascending within
// a scalar, GLV k1 before k2 — the order oracle of the counting scatter.
func appendScatter(t *testing.T, fb *FixedBase, scalars []bigint.Nat) *ScatterResult {
	t.Helper()
	res := &ScatterResult{Buckets: make([][]int32, 1<<(fb.s-1)+1)}
	res.Stats.Passes = 1
	put := func(k bigint.Nat, idx int, flip bool) {
		for j, d := range msm.SignedDigits(k, fb.scalarBits, fb.s) {
			if d == 0 {
				continue
			}
			ref := int32(j*fb.base + idx + 1)
			if (d < 0) != flip {
				ref = -ref
			}
			if d < 0 {
				d = -d
			}
			res.Buckets[d] = append(res.Buckets[d], ref)
			res.Stats.GlobalAtomics++
		}
	}
	for i, k := range scalars {
		if fb.glv == nil {
			put(k, i, false)
			continue
		}
		k1, neg1, k2, neg2, err := fb.glv.DecomposeNat(k)
		if err != nil {
			t.Fatal(err)
		}
		put(k1, i, neg1)
		put(k2, fb.n+i, neg2)
	}
	return res
}

// TestFixedBaseScatterOrder: the two-pass counting scatter fills every
// bucket with exactly the references, in exactly the order, of the
// per-bucket append form — the order both engines replay and the
// bit-identity suites rest on — with and without the GLV split, and
// with scalars that are zero or far shorter than the table width. The
// table-size estimate a cache consults rides along: it must equal what
// the built tables report.
func TestFixedBaseScatterOrder(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	const n = 48
	points := subgroupPoints(t, c, n, 5)
	scalars := c.SampleScalars(n, 6)
	scalars[0] = bigint.New(len(scalars[0]))
	scalars[1] = bigint.New(len(scalars[1]))
	scalars[1][0] = 1
	for _, opts := range []Options{{}, {GLV: true}, {WindowSize: 5}, {GLV: true, WindowSize: 13}} {
		fb, err := NewFixedBase(c, points, opts)
		if err != nil {
			t.Fatal(err)
		}
		if est, err := FixedBaseBytes(c, n, opts); err != nil || est != fb.MemoryBytes() {
			t.Errorf("%+v: FixedBaseBytes = %d, %v; the built tables hold %d", opts, est, err, fb.MemoryBytes())
		}
		got, err := fb.scatter(scalars)
		if err != nil {
			t.Fatal(err)
		}
		want := appendScatter(t, fb, scalars)
		if got.Stats != want.Stats {
			t.Errorf("%+v: scatter stats %+v, want %+v", opts, got.Stats, want.Stats)
		}
		for b := range want.Buckets {
			if len(got.Buckets[b]) != len(want.Buckets[b]) || (len(want.Buckets[b]) > 0 && !reflect.DeepEqual(got.Buckets[b], want.Buckets[b])) {
				t.Fatalf("%+v: bucket %d = %v, want %v", opts, b, got.Buckets[b], want.Buckets[b])
			}
		}
	}
}

// TestFixedBaseRunAllocs pins the warm fixed-base execution's heap
// traffic: a 256-point run over resident tables on the concurrent
// engine must stay allocation-lean (it was ~3 650 objects when the
// scatter grew one slice per bucket and recoded through two slices per
// scalar, and every plan re-derived its kernel specs).
func TestFixedBaseRunAllocs(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	wide := *c
	wide.ScalarBits = 320 // an outsourced-check challenge width
	const n = 256
	points := c.SamplePoints(n, 21)
	scalars := wide.SampleScalars(n, 22)
	fb, err := NewFixedBase(&wide, points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := cluster(t, 8)
	opts := Options{Engine: EngineConcurrent, FixedBase: fb}
	ctx := context.Background()
	run := func() {
		if _, err := RunContext(ctx, &wide, sys, points, scalars, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: memoised kernel specs, runtime timers
	if allocs := testing.AllocsPerRun(5, run); allocs > 200 {
		t.Errorf("warm 256-point fixed-base RunContext allocates %.0f objects, want ≤ 200", allocs)
	} else {
		t.Logf("warm 256-point fixed-base RunContext: %.0f allocs", allocs)
	}
}

// TestVariableBaseRunAllocs: a warm variable-base run allocates per
// window (one flat scatter, one bucket array) and per shard, never per
// point or per bucket reference (it was ~40 000 objects when the scatter
// grew one slice per bucket).
func TestVariableBaseRunAllocs(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 1 << 12
	points := c.SamplePoints(n, 23)
	scalars := c.SampleScalars(n, 24)
	sys := cluster(t, 8)
	ctx := context.Background()
	run := func() {
		if _, err := RunContext(ctx, c, sys, points, scalars, Options{Engine: EngineConcurrent}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: memoised plan choice and kernel specs, runtime timers
	if allocs := testing.AllocsPerRun(3, run); allocs > 1500 {
		t.Errorf("warm 2^12 variable-base RunContext allocates %.0f objects, want ≤ 1500", allocs)
	} else {
		t.Logf("warm 2^12 variable-base RunContext: %.0f allocs", allocs)
	}
}
