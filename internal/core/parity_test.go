package core

import (
	"context"
	"reflect"
	"testing"

	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
)

// subgroupPoints returns n distinct points of the prime-order subgroup
// (multiples of the canonical generator) — required by the GLV
// strategies, harmless for the others.
func subgroupPoints(t testing.TB, c *curve.Curve, n int, seed int64) []curve.PointAffine {
	t.Helper()
	a := c.NewAdder()
	acc := c.NewXYZZ()
	c.SetAffine(acc, &c.Gen)
	step := c.SampleScalars(1, seed)[0]
	base := a.ScalarMul(&c.Gen, step)
	var chain []*curve.PointXYZZ
	for i := 0; i < n; i++ {
		a.Add(base, acc)
		chain = append(chain, base.Clone())
	}
	return c.BatchToAffine(chain)
}

// TestStrategyParityMatrix is the acceptance grid of the fixed-base/GLV
// PR: every evaluation strategy × engine × curve × fault class must
// produce a point whose affine normalisation is byte-identical to the
// plain serial reference, and within a strategy the serial and
// concurrent engines must agree bit for bit.
func TestStrategyParityMatrix(t *testing.T) {
	type strategy struct {
		name string
		glv  bool // endomorphism split
		fb   bool // precomputed tables
	}
	strategies := []strategy{
		{name: "fixed-base", fb: true},
		{name: "fixed-base-glv", fb: true, glv: true},
	}
	faultClasses := []struct {
		name string
		cfg  *gpusim.FaultConfig
	}{
		{name: "fault-free", cfg: nil},
		{name: "transient-straggler", cfg: &gpusim.FaultConfig{Seed: 7, Transient: 0.3, Straggler: 0.2, StragglerFactor: 16}},
		{name: "corrupt", cfg: &gpusim.FaultConfig{Seed: 7, Corrupt: 0.3}},
		{name: "device-lost", cfg: &gpusim.FaultConfig{Seed: 7, DeviceLost: 0.15}},
	}
	ctx := context.Background()
	const n = 64
	for _, curveName := range []string{"BN254", "BLS12-381"} {
		c := mustCurve(t, curveName)
		points := subgroupPoints(t, c, n, 41)
		scalars := c.SampleScalars(n, 42)
		sys := cluster(t, 4)

		ref, err := RunContext(ctx, c, sys, points, scalars, Options{Engine: EngineSerial})
		if err != nil {
			t.Fatalf("%s: plain serial reference: %v", curveName, err)
		}
		want := c.ToAffine(ref.Point).String()
		if naive := c.ToAffine(c.MSMReference(points, scalars)).String(); naive != want {
			t.Fatalf("%s: serial engine disagrees with naive reference", curveName)
		}

		for _, st := range strategies {
			var fb *FixedBase
			if st.fb {
				fb, err = NewFixedBase(c, points, Options{GLV: st.glv})
				if err != nil {
					t.Fatalf("%s/%s: NewFixedBase: %v", curveName, st.name, err)
				}
			}
			opts := Options{GLV: st.glv, FixedBase: fb}
			for _, fc := range faultClasses {
				var serialPt, concPt *curve.PointXYZZ
				for _, eng := range []Engine{EngineSerial, EngineConcurrent} {
					o := opts
					o.Engine = eng
					if fc.cfg != nil {
						if eng == EngineSerial {
							continue // injection targets the shard scheduler
						}
						cfg := *fc.cfg
						o.Faults = &cfg
					}
					res, err := RunContext(ctx, c, sys, points, scalars, o)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", curveName, st.name, eng, fc.name, err)
					}
					if got := c.ToAffine(res.Point).String(); got != want {
						t.Fatalf("%s/%s/%s/%s: result differs from plain serial reference",
							curveName, st.name, eng, fc.name)
					}
					if eng == EngineSerial {
						serialPt = res.Point
					} else {
						concPt = res.Point
					}
				}
				if serialPt != nil && concPt != nil && !reflect.DeepEqual(serialPt, concPt) {
					t.Fatalf("%s/%s/%s: serial and concurrent engines not bit-identical",
						curveName, st.name, fc.name)
				}
			}
		}
	}
}

// TestFixedBaseValidation pins the error surface of the fixed-base and
// GLV strategies.
func TestFixedBaseValidation(t *testing.T) {
	ctx := context.Background()
	c := mustCurve(t, "BN254")
	sys := cluster(t, 2)
	points := subgroupPoints(t, c, 8, 5)
	scalars := c.SampleScalars(8, 6)

	if _, err := NewFixedBase(c, nil, Options{}); err == nil {
		t.Error("empty base vector must error")
	}
	if _, err := NewFixedBase(c, points, Options{Unsigned: true}); err == nil {
		t.Error("unsigned recoding must be rejected")
	}
	fb, err := NewFixedBase(c, points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fb.N() != 8 || fb.GLV() || fb.MemoryBytes() <= 0 {
		t.Errorf("accessors: N=%d GLV=%v mem=%d", fb.N(), fb.GLV(), fb.MemoryBytes())
	}
	if _, err := RunContext(ctx, c, sys, points, scalars[:4],
		Options{FixedBase: fb, Engine: EngineSerial}); err == nil {
		t.Error("scalar count mismatch must error")
	}
	if _, err := RunContext(ctx, c, sys, points, scalars,
		Options{FixedBase: fb, Engine: EngineSerial, WindowSize: fb.WindowSize() + 1}); err == nil {
		t.Error("conflicting window size must error")
	}
	if _, err := RunContext(ctx, c, sys, points, scalars,
		Options{FixedBase: fb, GLV: true, Engine: EngineSerial}); err == nil {
		t.Error("GLV flag against non-GLV tables must error")
	}
	if _, err := RunContext(ctx, c, sys, points, scalars,
		Options{GLV: true, Engine: EngineSerial}); err == nil {
		t.Error("GLV without precomputed tables must error")
	}
	other := mustCurve(t, "BLS12-381")
	if _, err := RunContext(ctx, other, sys, subgroupPoints(t, other, 8, 5), other.SampleScalars(8, 6),
		Options{FixedBase: fb, Engine: EngineSerial}); err == nil {
		t.Error("curve mismatch must error")
	}
	if _, err := NewFixedBase(mustCurve(t, "MNT4753"), mustCurve(t, "MNT4753").SamplePoints(4, 1),
		Options{GLV: true}); err == nil {
		t.Error("GLV on a curve without the endomorphism must error")
	}
}
