package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample must be 0")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSpread pins spread to Python's statistics.quantiles(xs, n=4),
// which the driver uses: for 1..10 the cut points are 2.75, 5.5, 8.25.
func TestSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3, 3, 3, 3}) != 0 || spread([]float64{7}) != 0 {
		t.Error("a constant or single sample has no spread")
	}
}

func TestQuietest(t *testing.T) {
	// 64 ops: a slow phase over the first five blocks, a quiet stretch,
	// one outlier inside the quiet stretch.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 2
		if i >= 40 {
			xs[i] = 1
		}
	}
	xs[45] = 9
	if got := quietest(xs, median); got != 1 {
		t.Errorf("quietest median = %v, want the quiet stretch's 1", got)
	}
	if got := quietest(xs, maxOf); got != 1 {
		t.Errorf("quietest max = %v: blocks 6 and 7 hold no outlier", got)
	}
	if got := quietest(xs[:40], mean); got != 2 {
		t.Errorf("quietest mean = %v, want 2", got)
	}
	short := []float64{3, 1, 2} // too short to cut: taken whole
	if got := quietest(short, median); got != 2 {
		t.Errorf("a short run must be summarised whole, got %v", got)
	}
	if quietest(nil, median) != 0 {
		t.Error("an empty run has no quietest block")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, parent: 0, start: 0, end: 100 * ms},
		{id: 2, parent: 1, start: 10 * ms, end: 30 * ms},
		{id: 3, parent: 1, start: 20 * ms, end: 50 * ms},  // overlaps 2: parallel children
		{id: 4, parent: 1, start: 90 * ms, end: 120 * ms}, // sticks out of the parent
		{id: 5, parent: 3, start: 25 * ms, end: 35 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	for id, d := range self {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, 0, 0); id != 0 {
		t.Fatal("a nil recorder must hand out id 0")
	}
	none.end(0) // must not panic
	rec := newRecorder()
	op := rec.begin("op", 0, 7, 0)
	child := rec.begin("child", op, 7, 1)
	rec.end(child)
	rec.begin("never-closed", op, 7, 1)
	rec.end(op)
	spans := rec.closed()
	if len(spans) != 2 || spans[1].parent != op || spans[1].op != 7 {
		t.Fatalf("closed spans = %+v", spans)
	}
	path := t.TempDir() + "/sub/trace.json"
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(path)
	if !bytes.Contains(buf, []byte(`"traceEvents"`)) || !bytes.Contains(buf, []byte(`"op_id":7`)) {
		t.Fatalf("unexpected trace file: %s", buf)
	}
}

func TestArrivalSchedule(t *testing.T) {
	const rate, horizon = 5.0, 24 * time.Second
	gapsOf := func(due []time.Duration) []time.Duration {
		gaps := make([]time.Duration, len(due))
		prev := time.Duration(0)
		for i, d := range due {
			gaps[i], prev = d-prev, d
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		return gaps
	}
	a := arrivalSchedule(rand.New(rand.NewSource(1)), rate, horizon)
	again := arrivalSchedule(rand.New(rand.NewSource(1)), rate, horizon)
	b := arrivalSchedule(rand.New(rand.NewSource(2)), rate, horizon)
	if len(a) != 120 || len(b) != 120 {
		t.Fatalf("arrivals = %d and %d, want rate × horizon = 120", len(a), len(b))
	}
	sameOrder := true
	for i := range a {
		if a[i] != again[i] {
			t.Fatal("the same seed must give the same schedule")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("due times not increasing at %d", i)
		}
		sameOrder = sameOrder && a[i] == b[i]
	}
	if sameOrder {
		t.Error("different seeds gave the same order")
	}
	if a[len(a)-1] != horizon {
		t.Errorf("last arrival at %v, want the horizon", a[len(a)-1])
	}
	ga, gb := gapsOf(a), gapsOf(b)
	for i := range ga {
		if d := ga[i] - gb[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("seeds offer different gaps: %v vs %v", ga[i], gb[i])
		}
	}
	// Exponential, not uniform: the median gap is ln 2 of the mean.
	mean := horizon / time.Duration(len(a))
	if med := ga[len(ga)/2]; med < mean*6/10 || med > mean*8/10 {
		t.Errorf("median gap %v is not ≈ 0.69 × mean %v", med, mean)
	}
}

func TestSubSeed(t *testing.T) {
	seen := map[int64]bool{}
	for k := 0; k < 2000; k++ {
		s := subSeed(1, k)
		if s < 0 || seen[s] {
			t.Fatalf("stream %d: seed %d negative or repeated", k, s)
		}
		seen[s] = true
	}
	if subSeed(1, 0) == subSeed(2, 0) || subSeed(1, 3) != subSeed(1, 3) {
		t.Error("sub-seeds must depend on, and only on, the run seed and stream")
	}
}

// TestManifest keeps BENCHMARK.json equal to the metric tables and the
// tables inside the driver's limits.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate with: go run ./cmd/bench -manifest > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	workloadNames := map[string]bool{}
	for _, w := range workloadDefs {
		unique(w.name)
		workloadNames[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if _, ok := workloadByName(w.name); !ok {
			t.Errorf("workload %s has no set-up", w.name)
		}
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	endToEnd := map[string]bool{}
	for _, d := range endToEndDefs {
		unique(d.name)
		endToEnd[d.name] = true
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q better %q", d.name, d.unit, d.better)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d, ok := endToEndByName("setup_s"); !ok || d.unit != "s" || d.better != "lower" {
		t.Error("setup_s [s, lower] must be an end-to-end metric")
	}
	if n := len(layerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range layerDefs {
		unique(d.name)
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q better %q", d.name, d.unit, d.better)
		}
		if !endToEnd[d.moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s is measured on no workload", d.name)
		}
		for _, w := range d.on {
			if !workloadNames[w] {
				t.Errorf("%s names unknown workload %q", d.name, w)
			}
		}
	}
}

func TestRenderLayers(t *testing.T) {
	m := metrics{}
	for _, d := range layerDefs {
		if d.measuredOn(wCluster) {
			m[d.name] = 1
		}
	}
	out, err := renderLayers(wCluster, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(layerDefs) {
		t.Fatalf("rendered %d metrics, want all %d", len(out), len(layerDefs))
	}
	if out["cluster.msm_checks"].Value != 1 || out["core.pacc_ops"].Value != 0 || out["core.pacc_ops"].Unit != "count" {
		t.Errorf("measured layers must carry their value, others 0: %+v %+v", out["cluster.msm_checks"], out["core.pacc_ops"])
	}
	delete(m, "cluster.msm_checks")
	if _, err := renderLayers(wCluster, m); err == nil {
		t.Error("a promised metric that no probe measured must be an error")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		exact  bool
		want   string
	}{
		{"same", steady, steady, "lower", false, "ok"},
		{"slower within bound", steady, scale(1.08), "lower", false, "ok"},
		{"slower beyond bound", steady, scale(1.15), "lower", false, "worse"},
		{"faster", steady, scale(0.5), "lower", false, "ok"},
		{"throughput fell", steady, scale(0.85), "higher", false, "worse"},
		{"throughput rose", steady, scale(1.5), "higher", false, "ok"},
		{"too noisy to tell", steady, noisy, "lower", false, "unresolved"},
		{"exact equal", []float64{42, 42}, []float64{42, 42}, "lower", true, "ok"},
		{"exact differs", []float64{42, 42}, []float64{43, 43}, "lower", true, "worse"},
		{"exact improves is still a change", []float64{42, 42}, []float64{41, 41}, "lower", true, "worse"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10, c.exact); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReadsWhatOutWrites(t *testing.T) {
	dir := t.TempDir()
	res := func(p50 float64) outcome {
		return outcome{Workload: wMSM, Correct: true, Attempted: 1, Metrics: renderEndToEnd(metrics{"op_p50_s": p50, "setup_s": 1})}
	}
	for _, p50 := range []float64{1.0, 1.01, 0.99} {
		if err := appendResult(dir+"/a.jsonl", res(p50)); err != nil {
			t.Fatal(err)
		}
		if err := appendResult(dir+"/b.jsonl", res(p50*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if code := runCompare(&buf, dir+"/a.jsonl", dir+"/a.jsonl"); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := runCompare(&buf, dir+"/a.jsonl", dir+"/b.jsonl"); code != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a 1.5× slower p50 must be worse: exit %d\n%s", code, buf.String())
	}
}

// TestSmokeMSM drives one workload through both kinds of run, a second
// of each: every promised metric appears and the outputs check out.
func TestSmokeMSM(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MSM engine for a few seconds")
	}
	w, _ := workloadByName(wMSM)
	o := runOpts{seed: 3, seconds: 1, smoke: true, traceDir: t.TempDir()}
	for _, traced := range []bool{false, true} {
		o.traced = traced
		res, err := runWorkload(context.Background(), w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		want := len(endToEndDefs)
		if traced {
			want = len(layerDefs)
		}
		if len(res.Metrics) != want {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
		}
		for _, d := range endToEndDefs {
			if !traced && !(res.Metrics[d.name].Value > 0) {
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, res.Metrics[d.name].Value)
			}
		}
	}
}
