package core

import (
	"context"
	"errors"
	"testing"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/msm"
)

// Failure-injection / adversarial-input tests for the functional DistMSM
// path: extreme scalars, degenerate point sets, and mixed-sign digit
// streams must all reduce to the double-and-add reference.

func TestRunExtremeScalars(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 4)
	points := c.SamplePoints(8, 101)
	w := (c.ScalarBits + 63) / 64

	allOnes := bigint.New(w)
	for i := 0; i < c.ScalarBits; i++ {
		allOnes[i/64] |= 1 << (uint(i) % 64)
	}
	one := bigint.New(w)
	one.SetUint64(1)
	powTwo := bigint.New(w)
	powTwo[w-1] = 1 << 61 // the isolated top in-range bit (position 253)

	scalars := []bigint.Nat{
		allOnes,         // forces carries through every signed window
		bigint.New(w),   // zero
		one,             // identity coefficient
		powTwo,          // isolated high bit
		allOnes.Clone(), // duplicate of an extreme value
		one.Clone(),     // duplicate small value
		allOnes.Clone(), // triplicate
		bigint.New(w),   // another zero
	}
	want := c.MSMReference(points, scalars)
	for _, opts := range []Options{
		{WindowSize: 7},
		{WindowSize: 13, Unsigned: true},
		{WindowSize: 4, ForceNaiveScatter: true},
	} {
		res, err := RunContext(context.Background(), c, cl, points, scalars, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Fatalf("%+v: extreme-scalar MSM mismatch", opts)
		}
	}
}

// Scalars wider than the curve's λ must be rejected, not silently
// truncated (found by this very test before the guard existed).
func TestRunRejectsOverwideScalars(t *testing.T) {
	c := mustCurve(t, "BN254")
	cl := cluster(t, 2)
	points := c.SamplePoints(1, 110)
	w := (c.ScalarBits + 63) / 64
	tooWide := bigint.New(w)
	tooWide[w-1] = 1 << 62 // bit 254 == 2^λ
	if _, err := RunContext(context.Background(), c, cl, points, []bigint.Nat{tooWide}, Options{WindowSize: 8}); err == nil {
		t.Fatal("over-wide scalar accepted")
	}
}

func TestRunDegeneratePointSets(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	cl := cluster(t, 8)
	base := c.SamplePoints(1, 102)[0]
	neg := curve.PointAffine{X: base.X.Clone(), Y: base.Y.Clone()}
	c.NegAffine(&neg)

	// All the same point, plus its negation, plus infinities: every
	// bucket-edge (doubling, cancellation, skip) fires.
	points := []curve.PointAffine{base, base, neg, {Inf: true}, base, neg, {Inf: true}, base}
	scalars := c.SampleScalars(len(points), 103)
	want := c.MSMReference(points, scalars)
	res, err := RunContext(context.Background(), c, cl, points, scalars, Options{WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !c.EqualXYZZ(res.Point, want) {
		t.Fatal("degenerate point-set MSM mismatch")
	}
}

// TestInputValidation is the table-driven audit of every construction
// and entry-point guard: degenerate cluster shapes, non-physical device
// specs and zero-length inputs must fail fast with their typed sentinels
// instead of dividing by zero (or worse) deep inside a run.
func TestInputValidation(t *testing.T) {
	c := mustCurve(t, "BN254")
	goodDev := gpusim.A100()
	badDev := goodDev
	badDev.SMs = 0
	unnamedDev := goodDev
	unnamedDev.Name = ""
	pts1 := c.SamplePoints(1, 120)
	scs1 := c.SampleScalars(1, 121)

	clusterCases := []struct {
		name string
		dev  gpusim.Device
		n    int
		want error
	}{
		{"zero GPUs", goodDev, 0, gpusim.ErrNoGPUs},
		{"negative GPUs", goodDev, -3, gpusim.ErrNoGPUs},
		{"zero-value device", gpusim.Device{}, 4, gpusim.ErrBadDevice},
		{"zero SMs", badDev, 4, gpusim.ErrBadDevice},
		{"unnamed device", unnamedDev, 4, gpusim.ErrBadDevice},
		{"valid", goodDev, 1, nil},
	}
	for _, tc := range clusterCases {
		t.Run("cluster/"+tc.name, func(t *testing.T) {
			_, err := gpusim.NewCluster(tc.dev, tc.n)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("want success, got %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}

	cl := cluster(t, 2)
	runCases := []struct {
		name    string
		points  []curve.PointAffine
		scalars []bigint.Nat
		want    error
	}{
		{"nil inputs", nil, nil, ErrEmptyInput},
		{"empty non-nil inputs", []curve.PointAffine{}, []bigint.Nat{}, ErrEmptyInput},
		{"nil scalars only", pts1, nil, ErrLengthMismatch},
		{"nil points only", nil, scs1, ErrLengthMismatch},
		{"length mismatch", c.SamplePoints(3, 122), c.SampleScalars(2, 123), ErrLengthMismatch},
		{"valid", pts1, scs1, nil},
	}
	for _, tc := range runCases {
		for _, e := range []Engine{EngineSerial, EngineConcurrent} {
			t.Run("run/"+tc.name+"/"+e.String(), func(t *testing.T) {
				_, err := RunContext(context.Background(), c, cl, tc.points, tc.scalars,
					Options{WindowSize: 8, Engine: e})
				if tc.want == nil {
					if err != nil {
						t.Fatalf("want success, got %v", err)
					}
					return
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("want %v, got %v", tc.want, err)
				}
			})
		}
	}

	// BuildPlan shares the n guard with the entry points.
	if _, err := BuildPlan(c, cl, 0, Options{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildPlan(n=0): want ErrEmptyInput, got %v", err)
	}
	if _, err := BuildPlan(c, cl, -5, Options{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildPlan(n=-5): want ErrEmptyInput, got %v", err)
	}

	// An invalid fault config is rejected before any work is scheduled.
	badFaults := &gpusim.FaultConfig{Transient: 2}
	_, err := RunContext(context.Background(), c, cl, pts1, scs1,
		Options{WindowSize: 8, Engine: EngineConcurrent, Faults: badFaults})
	if !errors.Is(err, gpusim.ErrBadFaultConfig) {
		t.Errorf("want ErrBadFaultConfig, got %v", err)
	}
}

func TestRunStatsConsistency(t *testing.T) {
	// The recorded PACC count must match the nonzero-digit count the
	// plan implies (one accumulate per scattered point).
	c := mustCurve(t, "BN254")
	cl := cluster(t, 2)
	n := 64
	points := c.SamplePoints(n, 104)
	scalars := c.SampleScalars(n, 105)
	res, err := RunContext(context.Background(), c, cl, points, scalars, Options{WindowSize: 9, Unsigned: true})
	if err != nil {
		t.Fatal(err)
	}
	// Count nonzero digits directly with the streaming recoder.
	plan := res.Plan
	rec := msm.NewWindowRecoder(scalars, c.ScalarBits, plan.S, plan.Signed)
	var nonzero uint64
	var digits []int32
	for j := 0; j < plan.Windows; j++ {
		digits = rec.Window(j, digits)
		for _, d := range digits {
			if d != 0 {
				nonzero++
			}
		}
	}
	if res.Stats.PACCOps != nonzero {
		t.Fatalf("PACC ops %d != nonzero digits %d", res.Stats.PACCOps, nonzero)
	}
	if res.Stats.Scatter.GlobalAtomics == 0 {
		t.Fatal("scatter stats missing")
	}
}
