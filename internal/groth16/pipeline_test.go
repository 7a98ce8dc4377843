package groth16

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/msm"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
	"distmsm/internal/telemetry"
)

// TestPipelinedParityMatrix is the acceptance grid of the phase DAG:
// the pipelined prover must produce byte-identical proofs to the
// sequential schedule with the G1 MSMs routed through DistMSM, across
// both execution engines, all four fault classes, and cached
// (fixed-base + precomputed G2) vs uncached key columns — with every
// concurrent phase planned over the whole cluster.
func TestPipelinedParityMatrix(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 200, 9)
	rnd := rand.New(rand.NewSource(31))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const seed = 77
	seq, err := e.ProveContextWith(ctx, cs, pk, w, rand.New(rand.NewSource(seed)), Provers{})
	if err != nil {
		t.Fatal(err)
	}
	want := e.MarshalProof(seq)
	if ok, err := e.Verify(vk, seq, w[1:1+cs.NPublic]); err != nil || !ok {
		t.Fatalf("sequential reference proof rejected: %v", err)
	}

	// The cached configuration mirrors a service registration: GLV-folded
	// fixed-base tables per G1 column plus the precomputed G2 over pk.B2.
	var fb [4]*core.FixedBase
	for phase, col := range map[MSMPhase][]curve.PointAffine{
		PhaseA: pk.A, PhaseB1: pk.B1, PhaseK: pk.K, PhaseZ: pk.Z,
	} {
		tb, err := core.NewFixedBase(e.P.Curve, col, core.Options{GLV: true})
		if err != nil {
			t.Fatalf("NewFixedBase(%s): %v", phase, err)
		}
		fb[phase] = tb
	}
	g2pre := e.P.G2.Precompute(pk.B2, 0, e.Fr.Modulus.BitLen())

	faultClasses := []struct {
		name string
		cfg  *gpusim.FaultConfig
	}{
		{name: "fault-free", cfg: nil},
		{name: "transient-straggler", cfg: &gpusim.FaultConfig{Seed: 7, Transient: 0.3, Straggler: 0.2, StragglerFactor: 16}},
		{name: "corrupt", cfg: &gpusim.FaultConfig{Seed: 7, Corrupt: 0.3}},
		{name: "device-lost", cfg: &gpusim.FaultConfig{Seed: 7, DeviceLost: 0.15}},
	}
	for _, eng := range []core.Engine{core.EngineSerial, core.EngineConcurrent} {
		for _, fc := range faultClasses {
			if fc.cfg != nil && eng == core.EngineSerial {
				continue // injection targets the shard scheduler
			}
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/cached=%v", eng, fc.name, cached)
				pr := Provers{Pipeline: &PipelineOptions{}}
				eng, fc, cached := eng, fc, cached
				pr.G1Ctx = func(msmCtx context.Context, phase MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
					opts := core.Options{Engine: eng}
					if fc.cfg != nil {
						cfg := *fc.cfg
						opts.Faults = &cfg
					}
					if cached {
						opts.FixedBase = fb[phase]
						opts.GLV = true
					}
					res, err := core.RunContext(msmCtx, e.P.Curve, cl, points, scalars, opts)
					if err != nil {
						return nil, err
					}
					return res.Point, nil
				}
				if cached {
					pr.G2Ctx = func(msmCtx context.Context, _ []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
						return g2pre.MSMContext(msmCtx, scalars)
					}
				}
				proof, err := e.ProveContextWith(ctx, cs, pk, w, rand.New(rand.NewSource(seed)), pr)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(e.MarshalProof(proof), want) {
					t.Fatalf("%s: pipelined proof differs from the sequential prover's bytes", name)
				}
			}
		}
	}
}

// TestQuotientParallelNTTParity: at a domain large enough to clear the
// parallel transform's serial fallback (d >= 1024) the quotient computed
// on the parallel coset NTTs is bit-identical to the serial path for
// every worker count, and a dead context still surfaces from inside the
// parallel butterfly passes.
func TestQuotientParallelNTTParity(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 1023, 3)
	const d = 1024
	ctx := context.Background()
	serial, err := e.quotient(ctx, cs, d, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		got, err := e.quotient(ctx, cs, d, w, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d coefficients, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if !got[i].Equal(serial[i]) {
				t.Fatalf("workers=%d: coefficient %d differs from serial quotient", workers, i)
			}
		}
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.quotient(dead, cs, d, w, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel quotient on dead context: want context.Canceled, got %v", err)
	}
}

// TestPipelinedCancelMidPhase: an external cancel lands while every G1
// phase is blocked mid-MSM, and the DAG join returns context.Canceled
// without hanging; a spontaneously failing phase cancels its in-flight
// siblings and the error comes back annotated with the phase name —
// under the sequential schedule too, where the phases after the failing
// one never start.
func TestPipelinedCancelMidPhase(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 60, 5)
	rnd := rand.New(rand.NewSource(6))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}

	// (a) External cancellation mid-phase.
	started := make(chan struct{})
	var once sync.Once
	blocking := func(msmCtx context.Context, _ MSMPhase, _ []curve.PointAffine, _ []bigint.Nat) (*curve.PointXYZZ, error) {
		once.Do(func() { close(started) })
		<-msmCtx.Done()
		return nil, msmCtx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.ProveContextWith(ctx, cs, pk, w, rand.New(rand.NewSource(1)),
			Provers{G1Ctx: blocking, Pipeline: &PipelineOptions{}})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled pipelined prove did not return")
	}

	// (b) A failing msm-K surfaces annotated under both schedules. Under
	// the DAG it cancels its in-flight siblings; sequentially, the phases
	// before it complete and msm-Z never runs.
	wantErr := errors.New("injected msm-K failure")
	for _, pipeline := range []*PipelineOptions{nil, {}} {
		var siblingCancelled, zRan atomic.Bool
		failing := func(msmCtx context.Context, phase MSMPhase, _ []curve.PointAffine, _ []bigint.Nat) (*curve.PointXYZZ, error) {
			if phase == PhaseK {
				return nil, wantErr
			}
			if phase == PhaseZ {
				zRan.Store(true)
			}
			if pipeline == nil {
				return e.P.Curve.NewXYZZ(), nil
			}
			// Other phases block until the group context dies: the failure
			// must cancel running siblings, not just unstarted ones.
			<-msmCtx.Done()
			siblingCancelled.Store(true)
			return nil, msmCtx.Err()
		}
		_, err = e.ProveContextWith(context.Background(), cs, pk, w, rand.New(rand.NewSource(2)),
			Provers{G1Ctx: failing, Pipeline: pipeline})
		if !errors.Is(err, wantErr) {
			t.Fatalf("pipelined=%v: want the injected phase error, got %v", pipeline != nil, err)
		}
		if !strings.Contains(err.Error(), "msm-K") {
			t.Fatalf("pipelined=%v: error not annotated with the failing phase: %v", pipeline != nil, err)
		}
		if pipeline != nil && !siblingCancelled.Load() {
			t.Fatal("a failing phase did not cancel its in-flight siblings")
		}
		if pipeline == nil && zRan.Load() {
			t.Fatal("sequential schedule ran msm-Z after msm-K failed")
		}
	}
}

// TestSequentialSchedule pins the sequential schedule of the phase
// table: the MSM backends are called one at a time in table order
// (A, B2, B1, K, Z), and the six phase spans sit on the host lane in
// table order without overlapping.
func TestSequentialSchedule(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 40, 3)
	rnd := rand.New(rand.NewSource(8))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu              sync.Mutex
		calls           []string
		inFlight, maxIn int
	)
	record := func(name string) (done func()) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, name)
		inFlight++
		maxIn = max(maxIn, inFlight)
		return func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}
	}
	pr := Provers{
		G1Ctx: func(ctx context.Context, phase MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
			defer record(phase.String())()
			return msm.MSM(e.P.Curve, points, scalars, msm.Config{Signed: true})
		},
		G2Ctx: func(ctx context.Context, points []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
			defer record("B2")()
			return e.P.G2.MSMContext(ctx, points, scalars)
		},
	}
	tr := telemetry.NewTracer(0)
	proof, err := e.ProveContextWith(telemetry.NewContext(context.Background(), tr), cs, pk, w, rnd, pr)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil || !ok {
		t.Fatalf("sequential proof rejected: %v", err)
	}

	if got, want := strings.Join(calls, ","), "A,B2,B1,K,Z"; got != want {
		t.Errorf("backend call order %s, want %s", got, want)
	}
	if maxIn != 1 {
		t.Errorf("%d backend calls in flight at once, want 1", maxIn)
	}

	var spans []telemetry.Span
	for _, s := range tr.Spans() {
		if s.Cat == "groth16" {
			spans = append(spans, s)
		}
	}
	phases := []string{"quotient", "msm-A", "msm-B2", "msm-B1", "msm-K", "msm-Z"}
	if len(spans) != len(phases) {
		t.Fatalf("%d groth16 spans, want %d", len(spans), len(phases))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for i, s := range spans {
		if s.Name != phases[i] {
			t.Errorf("span %d is %q, want %q", i, s.Name, phases[i])
		}
		if s.Track != telemetry.TrackHost {
			t.Errorf("phase %q on lane %d, want the host lane", s.Name, s.Track)
		}
		if i > 0 {
			prev := spans[i-1]
			if s.Start.Before(prev.Start.Add(prev.Dur)) {
				t.Errorf("phase %q starts before %q ends", s.Name, prev.Name)
			}
		}
	}
}

// TestPipelinedNoGoroutineLeak: the DAG join leaves no phase goroutine
// behind, on success and on phase failure alike.
func TestPipelinedNoGoroutineLeak(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 40, 8)
	rnd := rand.New(rand.NewSource(4))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		if _, err := e.ProveContextWith(context.Background(), cs, pk, w,
			rand.New(rand.NewSource(int64(i))), Provers{Pipeline: &PipelineOptions{}}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		pr := Provers{Pipeline: &PipelineOptions{}}
		pr.G1Ctx = func(_ context.Context, phase MSMPhase, _ []curve.PointAffine, _ []bigint.Nat) (*curve.PointXYZZ, error) {
			if phase == PhaseB1 {
				return nil, boom
			}
			return e.P.Curve.NewXYZZ(), nil
		}
		if _, err := e.ProveContextWith(context.Background(), cs, pk, w,
			rand.New(rand.NewSource(int64(i))), pr); !errors.Is(err, boom) {
			t.Fatalf("failing run %d: want boom, got %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedPhaseSpans runs one traced pipelined prove at a domain
// large enough for the parallel NTT (so the quotient goroutine yields
// mid-transform) and pins the telemetry contract of the phase DAG.
func TestPipelinedPhaseSpans(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 1023, 4)
	rnd := rand.New(rand.NewSource(9))
	pk, _, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(0)
	ctx := telemetry.NewContext(context.Background(), tr)
	phaseDur := make(map[string]time.Duration)
	var mu sync.Mutex
	opt := &PipelineOptions{OnPhase: func(name string, d time.Duration) {
		mu.Lock()
		phaseDur[name] = d
		mu.Unlock()
	}}
	if _, err := e.ProveContextWith(ctx, cs, pk, w, rnd, Provers{Pipeline: opt}); err != nil {
		t.Fatal(err)
	}

	spans := make(map[string]telemetry.Span)
	for _, s := range tr.Spans() {
		if s.Cat == "groth16" {
			if _, dup := spans[s.Name]; dup {
				t.Fatalf("phase %q recorded twice", s.Name)
			}
			spans[s.Name] = s
		}
	}
	phases := []string{"quotient", "msm-A", "msm-B2", "msm-B1", "msm-K", "msm-Z"}

	// Satellite pin: each phase records its own start on its own lane —
	// overlapping spans never alias a shared start time or track.
	t.Run("no-alias", func(t *testing.T) {
		lanes := make(map[telemetry.Track]string)
		for _, name := range phases {
			s, ok := spans[name]
			if !ok {
				t.Fatalf("phase %q recorded no span", name)
			}
			if s.Dur <= 0 {
				t.Errorf("phase %q has non-positive duration %v", name, s.Dur)
			}
			if s.Track >= telemetry.TrackHost {
				t.Errorf("phase %q drawn on lane %d, want a dedicated phase lane", name, s.Track)
			}
			if prev, taken := lanes[s.Track]; taken {
				t.Errorf("phases %q and %q alias lane %d", prev, name, s.Track)
			}
			lanes[s.Track] = name
			if d, ok := phaseDur[name]; !ok || d <= 0 {
				t.Errorf("OnPhase callback missing or zero for %q", name)
			}
		}
	})

	// Acceptance pin: the quotient span overlaps at least one witness-MSM
	// span in wall time — the whole point of the DAG schedule.
	t.Run("quotient-overlaps-witness-msm", func(t *testing.T) {
		q := spans["quotient"]
		overlap := false
		for _, name := range []string{"msm-A", "msm-B2", "msm-B1", "msm-K"} {
			s := spans[name]
			if s.Start.Before(q.Start.Add(q.Dur)) && q.Start.Before(s.Start.Add(s.Dur)) {
				overlap = true
				break
			}
		}
		if !overlap {
			t.Fatal("quotient span overlaps no witness-MSM span — the phases ran sequentially")
		}
	})

	// The exported Chrome trace names the phase lanes so the overlap is
	// visible in the viewer.
	t.Run("chrome-trace-lanes", func(t *testing.T) {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		for _, lane := range []string{"phase0", "phase5"} {
			if !strings.Contains(buf.String(), lane) {
				t.Errorf("Chrome trace missing thread_name %q", lane)
			}
		}
	})

	// The sequential prover keeps drawing its phases on the host lane.
	t.Run("sequential-stays-on-host", func(t *testing.T) {
		trSeq := telemetry.NewTracer(0)
		ctxSeq := telemetry.NewContext(context.Background(), trSeq)
		csS, wS := r1cs.BuildSynthetic(e.Fr, 40, 2)
		pkS, _, err := e.SetupContext(context.Background(), csS, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ProveContextWith(ctxSeq, csS, pkS, wS, rnd, Provers{}); err != nil {
			t.Fatal(err)
		}
		for _, s := range trSeq.Spans() {
			if s.Cat == "groth16" && s.Track != telemetry.TrackHost {
				t.Errorf("sequential phase %q left the host lane (%d)", s.Name, s.Track)
			}
		}
	})
}

// TestPipelinedProveBasics: entry guards and the happy path of the
// pipelined prover itself (no custom MSM backends).
func TestPipelinedProveBasics(t *testing.T) {
	e := newEngine(t)
	cs, w := r1cs.BuildSynthetic(e.Fr, 30, 11)
	rnd := rand.New(rand.NewSource(12))
	pk, vk, err := e.SetupContext(context.Background(), cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	pip := Provers{Pipeline: &PipelineOptions{}}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ProveContextWith(dead, cs, pk, w, rnd, pip); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context: want context.Canceled, got %v", err)
	}
	// The zero witness satisfies the synthetic multiply chain, so the
	// unsatisfying-witness guard is pinned on the product circuit.
	csBad, _, _ := r1cs.BuildProduct(e.Fr)
	pkBad, _, err := e.SetupContext(context.Background(), csBad, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProveContextWith(context.Background(), csBad, pkBad, csBad.NewWitness(), rnd, pip); err == nil {
		t.Fatal("pipelined prover accepted an unsatisfying witness")
	}
	proof, err := e.ProveContextWith(context.Background(), cs, pk, w, rnd, pip)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Verify(vk, proof, w[1:1+cs.NPublic]); err != nil || !ok {
		t.Fatalf("pipelined proof rejected: %v", err)
	}
}
