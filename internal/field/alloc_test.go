package field

import (
	"math/rand"
	"testing"
)

// TestFieldOpsAllocFree pins the zero-allocation property of the hot
// arithmetic: every Mul/Square/Add/Sub in the MSM inner loops runs on
// caller-provided limb storage, so a regression here multiplies into
// millions of heap allocations per MSM.
func TestFieldOpsAllocFree(t *testing.T) {
	for _, name := range []string{"bn254-fp", "bls381-fp"} {
		f := mustField(t, name)
		rnd := rand.New(rand.NewSource(91))
		x, y, z := f.Rand(rnd), f.Rand(rnd), f.NewElement()
		cases := []struct {
			op string
			fn func()
		}{
			{"Mul", func() { f.Mul(z, x, y) }},
			{"Square", func() { f.Square(z, x) }},
			{"Add", func() { f.Add(z, x, y) }},
			{"Sub", func() { f.Sub(z, x, y) }},
			{"Neg", func() { f.Neg(z, x) }},
			{"SetOne", func() { f.SetOne(z) }},
		}
		for _, tc := range cases {
			if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
				t.Errorf("%s: %s allocates %.1f objects/op, want 0", name, tc.op, allocs)
			}
		}
	}
	// Inv at every width: the 4- and 6-limb unrolled fields and the
	// generic one-limb field.
	for _, name := range []string{"bn254-fp", "bls381-fp", "small"} {
		f := mustField(t, name)
		x, z := f.Rand(rand.New(rand.NewSource(93))), f.NewElement()
		if allocs := testing.AllocsPerRun(100, func() { f.Inv(z, x) }); allocs != 0 {
			t.Errorf("%s: Inv allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestBatchInverterAllocFree: after the warm-up call sizes the arena,
// repeated batch inversions must not allocate — this is the per-round
// cost of the batch-affine bucket accumulation.
func TestBatchInverterAllocFree(t *testing.T) {
	f := mustField(t, "bn254-fp")
	rnd := rand.New(rand.NewSource(92))
	xs := make([]Element, 64)
	for i := range xs {
		xs[i] = f.Rand(rnd)
	}
	bi := f.NewBatchInverter(len(xs))
	bi.Invert(xs) // warm-up: grows the prefix arena once
	for i := range xs {
		xs[i] = f.Rand(rnd)
	}
	if allocs := testing.AllocsPerRun(20, func() { bi.Invert(xs) }); allocs != 0 {
		t.Errorf("BatchInverter.Invert allocates %.1f objects/op, want 0", allocs)
	}
}
