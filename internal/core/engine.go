package core

import (
	"context"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/msm"
	"distmsm/internal/telemetry"
)

// Engine selects how the functional execution is scheduled on the host.
// Both engines run the one scheduled body (runScheduled) over the same
// plan, so they produce bit-identical points and identical Stats op
// counts; they differ only in width.
type Engine int

const (
	// EngineSerial is the width-1 schedule: the plan's shards run in plan
	// order on the caller's goroutine, and each window is bucket-reduced
	// as soon as its last shard commits. It ignores the fault injector,
	// shard verification and the health registry, and reports no
	// per-GPU stats.
	EngineSerial Engine = iota
	// EngineConcurrent is the §3.2.2/§3.2.3 structure actually executed:
	// one worker goroutine per simulated GPU consumes that GPU's
	// (window, bucket-range) shard assignments, and a host reducer
	// goroutine overlaps the bucket-reduce of completed windows with the
	// bucket-sum of later ones.
	EngineConcurrent
)

func (e Engine) String() string {
	switch e {
	case EngineSerial:
		return "serial"
	case EngineConcurrent:
		return "concurrent"
	}
	return "unknown"
}

// windowReduce runs phase 4, the final Horner combination of the window
// sums, into res.Point.
func windowReduce(ctx context.Context, plan *Plan, windowSums []*curve.PointXYZZ, res *Result, tr *telemetry.Tracer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c := plan.Curve
	adder := c.NewAdder()
	acc := c.NewXYZZ()
	t0 := time.Now()
	for j := plan.Windows - 1; j >= 0; j-- {
		if plan.FixedBase == nil {
			// Horner doubling ladder. Fixed-base plans skip it: their
			// tables already carry the 2^(j·s) factors, which is the point
			// of the §2.3.1 precomputation.
			for b := 0; b < plan.S; b++ {
				adder.Double(acc)
				res.Stats.WindowOps++
			}
		}
		adder.Add(acc, windowSums[j])
		res.Stats.WindowOps++
	}
	res.Stats.Phase.WindowReduce = time.Since(t0)
	if tr != nil {
		tr.Record(telemetry.Span{Name: "window-reduce", Cat: "msm", Track: telemetry.TrackHost,
			Start: t0, Dur: res.Stats.Phase.WindowReduce})
	}
	res.Point = acc
	return nil
}

// group is a minimal errgroup: the first error wins and cancels the
// derived context so sibling goroutines stop at their next boundary.
type group struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	once   sync.Once
	err    error
}

func newGroup(ctx context.Context) (*group, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &group{cancel: cancel}, ctx
}

func (g *group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

// windowEntry is one in-flight window of the scheduled body: its
// scatter result (shared by every GPU working on the window), the
// shared bucket-accumulator array the shards fill at disjoint ranges,
// and the count of shards still to finish.
type windowEntry struct {
	sc      *ScatterResult
	acc     []*curve.PointXYZZ
	pending int
}

// windowProvider recodes and scatters windows on demand, in window
// order, caching each window until every shard of it has completed.
// This keeps digit storage at one window (plus a carry byte per scalar)
// instead of the full digits[windows][n] matrix.
type windowProvider struct {
	mu      sync.Mutex
	plan    *Plan
	rec     *msm.WindowRecoder
	digits  []int32
	entries map[int]*windowEntry
	shards  []int // per-window shard count from the plan
	next    int

	stats       ScatterStats
	scatterTime time.Duration
	tr          *telemetry.Tracer // nil = tracing disabled
}

func newWindowProvider(plan *Plan, scalars []bigint.Nat) *windowProvider {
	shards := make([]int, plan.Windows)
	for _, a := range plan.Assignments {
		shards[a.Window]++
	}
	p := &windowProvider{
		plan:    plan,
		entries: map[int]*windowEntry{},
		shards:  shards,
	}
	if plan.Pre == nil {
		p.rec = msm.NewWindowRecoder(scalars, plan.Curve.ScalarBits, plan.S, plan.Signed)
	}
	return p
}

// acquire returns window j's entry, recoding and scattering windows up
// to j first if needed. Scatter happens exactly once per window, in
// window order, so the scatter stats are the same at every width. The
// ScatterResult is returned separately, captured under the lock: a
// speculative or retried execution may outlive the window's release
// (which drops entry.sc), and must keep using the pointer it acquired.
func (p *windowProvider) acquire(j int) (*windowEntry, *ScatterResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.next <= j {
		var sc *ScatterResult
		if p.plan.Pre != nil {
			// Pre-scattered window (fixed-base evaluation): scatter wall
			// time was paid at the transform; only stats fold in here.
			sc = p.plan.Pre[p.next]
		} else {
			p.digits = p.rec.Window(p.next, p.digits)
			t0 := time.Now()
			var err error
			sc, err = scatterWindow(p.plan, p.digits)
			if err != nil {
				return nil, nil, err
			}
			dur := time.Since(t0)
			p.scatterTime += dur
			if p.tr != nil {
				p.tr.Record(telemetry.Span{Name: "scatter", Cat: "msm", Track: telemetry.TrackHost,
					Start: t0, Dur: dur, Labeled: true, Window: int32(p.next)})
			}
		}
		p.stats.add(sc.Stats)
		p.entries[p.next] = &windowEntry{
			sc:      sc,
			acc:     make([]*curve.PointXYZZ, p.plan.Buckets),
			pending: p.shards[p.next],
		}
		p.next++
	}
	e := p.entries[j]
	if e == nil {
		// The window was already fully committed and its buffers dropped:
		// every shard of it (including the caller's) has a winning result,
		// so this late speculative/stolen execution has nothing to do.
		return nil, nil, nil
	}
	return e, e.sc, nil
}

// release marks one shard of window j done. When it was the last shard
// the window's scatter buffers are dropped and release reports true:
// the accumulators are ready for the reducer.
func (p *windowProvider) release(j int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[j]
	e.pending--
	if e.pending > 0 {
		return false
	}
	e.sc = nil
	delete(p.entries, j)
	return true
}
