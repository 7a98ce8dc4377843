package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// warmupOps run before every timed section and are not measured: they
// fill lazily built tables and let the EWMAs of service and coordinator
// settle, costs a user pays once per process, not per op.
const warmupOps = 5

// An untraced run sets up from scratch at least setupReps times, and
// goes on until setupBudget is spent or maxSetupReps are done; setup_s
// is the median. A set-up of tens of milliseconds is otherwise at the
// mercy of one GC cycle.
const (
	setupReps    = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// runOpts are the knobs of one run, all derived from the command line.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	// smoke divides every probe's repetition count by ten and skips the
	// warm-up (main also shortens seconds): a plumbing check, not a
	// measurement.
	smoke    bool
	traceDir string
}

// warmups is the number of unmeasured ops before the timed section.
func (o runOpts) warmups() int {
	if o.smoke {
		return 0
	}
	return warmupOps
}

// reps scales a probe's repetition count for smoke runs.
func (o runOpts) reps(n int) int {
	if o.smoke {
		return max(1, n/10)
	}
	return n
}

// instance is one set-up workload. run drives the timed section; check
// verifies outputs afterwards, outside it; layers fills the per-layer
// metrics of a traced run from the spans, the values the program
// returned, and probes of the layers this workload enters.
type instance interface {
	run(ctx context.Context, d time.Duration, warmups int, rec *recorder) runResult
	// check returns how many ops produced a wrong output, and an error
	// for a failure that is not attributable to single ops.
	check(ctx context.Context) (wrong int, err error)
	layers(ctx context.Context, o runOpts, spans []span, res runResult, m metrics) error
	close()
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runResult is what one timed section observed.
type runResult struct {
	// lat holds the host seconds of every op that completed without an
	// error, in op order. withSpans and without hold the two sides of
	// the tracing-overhead ratio: like ops that did and did not record
	// spans.
	lat                []float64
	withSpans, without []float64
	// attempted counts ops started; failed counts those that errored,
	// were refused or shed, or missed their deadline.
	attempted, failed int
	wall              time.Duration
	// openLoop says the ops were sent on a schedule: its gaps and bursts
	// are part of what is measured, so the run is summarised whole.
	openLoop bool
	lag      []float64 // open loop: how late each op was sent
	mem      memDelta
}

// record adds one completed op. comparable says whether the op may
// stand for its side of the tracing-overhead ratio.
func (r *runResult) record(d time.Duration, traced, comparable bool) {
	r.lat = append(r.lat, d.Seconds())
	switch {
	case !comparable:
	case traced:
		r.withSpans = append(r.withSpans, d.Seconds())
	default:
		r.without = append(r.without, d.Seconds())
	}
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

type memDelta struct {
	mallocs, bytes uint64
	gcPause        time.Duration
}

// memSince is what the process allocated and paused since before.
func memSince(before runtime.MemStats) memDelta {
	now := readMem()
	return memDelta{
		mallocs: now.Mallocs - before.Mallocs,
		bytes:   now.TotalAlloc - before.TotalAlloc,
		gcPause: time.Duration(now.PauseTotalNs - before.PauseTotalNs),
	}
}

// opFunc is one closed-loop op. i rotates the inputs; rec is nil for an
// untraced op, else parent is the op's root span.
type opFunc func(ctx context.Context, i int, rec *recorder, parent int) error

// closedLoop is one caller issuing ops back to back for d: the next op
// starts when the previous one returns. In a traced run every other op
// records spans, so one run yields both sides of the tracing overhead.
func closedLoop(ctx context.Context, d time.Duration, warmups int, rec *recorder, op opFunc) runResult {
	var res runResult
	for i := 0; i < warmups; i++ {
		if err := op(ctx, i, nil, 0); err != nil {
			logf("warm-up op %d: %v", i, err)
		}
	}
	before := readMem()
	start := time.Now()
	// At least two ops, so that even the shortest traced run has both a
	// traced and an untraced one.
	for i := warmups; time.Since(start) < d || res.attempted < 2; i++ {
		r := rec
		if i%2 == 0 {
			r = nil
		}
		t0 := time.Now()
		id := r.begin("op", 0, i, 0)
		err := op(ctx, i, r, id)
		r.end(id)
		dt := time.Since(t0)
		res.attempted++
		if err != nil {
			res.failed++
			logf("op %d: %v", i, err)
			continue
		}
		res.record(dt, r != nil, true)
	}
	res.wall = time.Since(start)
	res.mem = memSince(before)
	return res
}

// outcome is one finished run of one workload.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Ops       int               `json:"ops"`
	Metrics   map[string]metric `json:"metrics"`
	Env       environment       `json:"env"`
}

// runWorkload sets w up, runs its timed section, checks its outputs and
// assembles the metrics: end-to-end ones for an untraced run, per-layer
// ones for a traced run.
func runWorkload(ctx context.Context, w workloadDef, o runOpts) (outcome, error) {
	out := outcome{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Env: currentEnv()}

	minReps, maxReps := setupReps, maxSetupReps
	if o.traced || o.smoke {
		minReps, maxReps = 1, 1 // setup_s is an end-to-end metric of full untraced runs only
	}
	var inst instance
	var setups []float64
	for spent := time.Duration(0); len(setups) < minReps || (spent < setupBudget && len(setups) < maxReps); {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, o); err != nil {
			return out, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	runtime.GC()
	heapMB := float64(readMem().HeapAlloc) / (1 << 20)

	var rec *recorder
	d := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		rec = newRecorder()
		d /= 3 // the traced run does a third of the work; probes use the rest
	}
	res := inst.run(ctx, d, o.warmups(), rec)
	wrong, err := inst.check(ctx)
	if err != nil {
		logf("%s: output check: %v", w.name, err)
	}
	out.Attempted = res.attempted
	out.Failed = res.failed + wrong
	out.Ops = len(res.lat)
	out.Correct = err == nil && out.Failed == 0 && len(res.lat) > 0

	m := metrics{}
	if !o.traced {
		ops := float64(max(1, res.attempted))
		m["setup_s"] = median(setups)
		if res.openLoop {
			m["op_p50_s"] = median(res.lat)
			m["op_p90_s"] = p90(res.lat)
			m["ops_per_s"] = float64(len(res.lat)-wrong) / res.wall.Seconds()
		} else {
			// Back-to-back ops: the quietest block's rate is one over its
			// mean op time.
			m["op_p50_s"] = quietest(res.lat, median)
			m["op_p90_s"] = quietest(res.lat, p90)
			m["ops_per_s"] = ratio(float64(len(res.lat)-wrong)/float64(len(res.lat)), quietest(res.lat, mean))
		}
		m["allocs_per_op"] = float64(res.mem.mallocs) / ops
		m["alloc_bytes_per_op"] = float64(res.mem.bytes) / ops
		m["setup_heap_mb"] = heapMB
		out.Metrics = renderEndToEnd(m)
		return out, nil
	}

	spans := rec.closed()
	m["harness.trace_overhead_ratio"] = ratio(median(res.withSpans), median(res.without))
	m["harness.op_max_s"] = maxOf(res.lat)
	m["harness.op_var_ratio"] = ratio(maxOf(res.lat), median(res.lat))
	m["harness.gen_lag_p90_s"] = p90(res.lag)
	m["harness.gc_pause_total_s"] = res.mem.gcPause.Seconds()
	if err := inst.layers(ctx, o, spans, res, m); err != nil {
		return out, fmt.Errorf("%s: per-layer probes: %w", w.name, err)
	}
	m["harness.peak_sys_mb"] = float64(readMem().Sys) / (1 << 20)
	if o.traceDir != "" {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", o.traceDir, w.name, o.seed)
		if err := writeChromeTrace(path, spans); err != nil {
			return out, err
		}
		logf("%s: %d spans written to %s", w.name, len(spans), path)
	}
	out.Metrics, err = renderLayers(w.name, m)
	return out, err
}

func renderEndToEnd(m metrics) map[string]metric {
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}

// renderLayers reports every per-layer metric: the measured value where
// the workload enters the layer, 0 elsewhere. A metric the tables
// promise for this workload but no probe produced is a bug in the
// benchmark, not a zero.
func renderLayers(workload string, m metrics) (map[string]metric, error) {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		v := 0.0
		if d.measuredOn(workload) {
			var ok bool
			if v, ok = m[d.name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured on %s", d.name, workload)
			}
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}
