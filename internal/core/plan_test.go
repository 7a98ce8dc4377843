package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"distmsm/internal/gpusim"
)

// TestHostWindow pins the executed window at the prover's and the
// bench's sizes: (⌈254/s⌉+1)·(n+2^s) is least at s = 5 for 66 and 127
// points and at s = 11 for 2^14.
func TestHostWindow(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{66, 5}, {127, 5}, {1 << 14, 11}} {
		if got := hostWindow(tc.n, 254, true); got != tc.want {
			t.Errorf("hostWindow(%d, 254, signed) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestExecutedPlan: with no pinned window RunContext prices the §3.1
// plan (Cost bit-equal to Analytic's) but runs the host window, with the
// same point as the reference and one health admission per run; with a
// pinned window the executed plan is the priced plan.
func TestExecutedPlan(t *testing.T) {
	c := mustCurve(t, "BN254")
	const n = 200
	points := c.SamplePoints(n, 31)
	scalars := c.SampleScalars(n, 32)
	want := c.MSMReference(points, scalars)
	ctx := context.Background()

	an, err := Analytic(c, cluster(t, 8), n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineSerial, EngineConcurrent} {
		res, err := RunContext(ctx, c, cluster(t, 8), points, scalars, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != an.Cost {
			t.Errorf("%v: Cost %+v, want Analytic's %+v", eng, res.Cost, an.Cost)
		}
		if res.Priced.S != an.Plan.S {
			t.Errorf("%v: priced s = %d, want %d", eng, res.Priced.S, an.Plan.S)
		}
		if hw := hostWindow(n, c.ScalarBits, true); res.Plan.S != hw || res.Plan.S == res.Priced.S {
			t.Errorf("%v: executed s = %d (priced %d), want the host window %d", eng, res.Plan.S, res.Priced.S, hw)
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Errorf("%v: executed-window point differs from MSMReference", eng)
		}
	}

	// Both plans come from one admission: a quarantined GPU's sit-out
	// advances by one per run, and the executed plan leaves it out.
	reg := gpusim.NewHealthRegistry(gpusim.HealthConfig{FaultThreshold: 1, CooldownRuns: 100})
	reg.RecordRun(3, 0, 1)
	for run := 1; run <= 2; run++ {
		res, err := RunContext(ctx, c, cluster(t, 8).WithHealth(reg), points, scalars, Options{Engine: EngineConcurrent})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot(8)[3].SitOut; got != run {
			t.Errorf("after %d runs GPU 3 sat out %d admissions, want %d", run, got, run)
		}
		for _, a := range res.Plan.Assignments {
			if a.GPU == 3 {
				t.Fatal("the executed plan gave quarantined GPU 3 a shard")
			}
		}
		if !c.EqualXYZZ(res.Point, want) {
			t.Error("executed-window point under a registry differs from MSMReference")
		}
	}

	res, err := RunContext(ctx, c, cluster(t, 8), points, scalars, Options{WindowSize: 8, Engine: EngineConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != res.Priced || res.Plan.S != 8 {
		t.Errorf("pinned window: Plan %p (s=%d), Priced %p, want one plan at s=8", res.Plan, res.Plan.S, res.Priced)
	}
	if res.Cost != res.Plan.EstimateCost() {
		t.Errorf("pinned window: Cost differs from the executed plan's price")
	}
}

// TestPlanChoiceCache: a memoised choice rebuilds the plan the search
// finds, with the same assignments and a bit-equal modeled cost.
func TestPlanChoiceCache(t *testing.T) {
	c := mustCurve(t, "BLS12-381")
	cl := cluster(t, 4)
	for _, opts := range []Options{{}, {ReduceOnGPU: true}, {Unsigned: true}} {
		const n = 777
		if _, err := BuildPlan(c, cl, n, opts); err != nil { // fills the cache
			t.Fatal(err)
		}
		planChoices.Lock()
		_, cached := planChoices.m[newPlanKey(c, cl, n, opts)]
		planChoices.Unlock()
		if !cached {
			t.Fatalf("%+v: search choice not memoised", opts)
		}
		hit, err := BuildPlan(c, cl, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := searchPlan(c, cl, n, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hit.S != fresh.S || hit.ReduceOnGPU != fresh.ReduceOnGPU || !reflect.DeepEqual(hit.Assignments, fresh.Assignments) {
			t.Errorf("%+v: cached plan s=%d gpuReduce=%v, search s=%d gpuReduce=%v", opts, hit.S, hit.ReduceOnGPU, fresh.S, fresh.ReduceOnGPU)
		}
		if h, f := hit.EstimateCost().Total(), fresh.EstimateCost().Total(); math.Float64bits(h) != math.Float64bits(f) {
			t.Errorf("%+v: cached plan costs %v, search %v", opts, h, f)
		}
	}
}
