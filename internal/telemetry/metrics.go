package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the dependency-free metrics half of the package: a
// registry of counters, gauges and fixed-bucket histograms with
// Prometheus text exposition (text format version 0.0.4). Handles are
// registered once (registration allocates and may take a lock) and
// updated forever after via atomics — Inc/Add/Set/Observe are safe on
// any hot path.

// Counter is a monotonically increasing metric. The zero value is
// usable, but registry-issued handles are the normal way to get one.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits so
// breaker states, byte totals and seconds all fit.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop; d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Observe is
// allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; per-bucket (not cumulative)
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile of the observed distribution by
// monotone piecewise-linear interpolation over the cumulative bucket
// counts: within the bucket where the cumulative count crosses q·Count,
// the value is interpolated linearly between the bucket's bounds (the
// first bucket interpolates up from zero). The estimate is exact when
// samples are uniform within their bucket and always within one bucket
// width otherwise; it is nondecreasing in q. Samples beyond the last
// finite bound (the +Inf bucket) clamp to that bound — a fixed-bucket
// histogram cannot see past it. Returns NaN when the histogram is empty
// or q is NaN; q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	lo := 0.0
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			return lo + (bound-lo)*(rank-cum)/c
		}
		cum += c
		lo = bound
	}
	// The crossing lands in the +Inf bucket: clamp.
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefSecondsBuckets is the default latency bucketing, in seconds —
// 500µs to ~2 minutes, roughly ×2.5 per step, wide enough for both a
// sub-millisecond MSM shard and a multi-second proof job.
var DefSecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one (family, label-set) time series.
type series struct {
	labels string // rendered label pairs without braces, e.g. `gpu="0"`
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text format. It is safe for concurrent use; handle registration is
// idempotent (the same name+labels returns the same handle).
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind", name))
	}
	return f
}

func (f *family) get(labels string) *series {
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter registers (or fetches) the counter series name{labels}.
// labels is the rendered pair list without braces (`class="transient"`)
// or "" for none.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindCounter).get(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or fetches) the gauge series name{labels}.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindGauge).get(labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is fn(), evaluated at
// exposition time — the natural shape for state snapshots like breaker
// states. fn must be safe to call from any goroutine and must not call
// back into the registry.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindGaugeFunc).get(labels).fn = fn
}

// Histogram registers (or fetches) the histogram series name{labels}
// with the given upper bounds (DefSecondsBuckets when nil).
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindHistogram).get(labels)
	if s.hist == nil {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		s.hist = h
	}
	return s.hist
}

func writeVal(b *strings.Builder, v float64) {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		fmt.Fprintf(b, "%d", int64(v))
		return
	}
	fmt.Fprintf(b, "%g", v)
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format, families in registration order, series in
// registration order within each family.
func (r *Registry) WritePrometheus() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.families[name]
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typ)
		for _, labels := range f.order {
			s := f.series[labels]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, labels), s.ctr.Value())
			case kindGauge:
				b.WriteString(seriesName(f.name, labels))
				b.WriteByte(' ')
				writeVal(&b, s.gauge.Value())
				b.WriteByte('\n')
			case kindGaugeFunc:
				b.WriteString(seriesName(f.name, labels))
				b.WriteByte(' ')
				writeVal(&b, s.fn())
				b.WriteByte('\n')
			case kindHistogram:
				h := s.hist
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s %d\n",
						seriesName(f.name+"_bucket", joinLabels(labels, fmt.Sprintf(`le="%g"`, bound))), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&b, "%s %d\n",
					seriesName(f.name+"_bucket", joinLabels(labels, `le="+Inf"`)), cum)
				b.WriteString(seriesName(f.name+"_sum", labels))
				b.WriteByte(' ')
				writeVal(&b, h.Sum())
				b.WriteByte('\n')
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_count", labels), h.Count())
			}
		}
	}
	return b.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// Handler returns an http.Handler serving the registry in the
// Prometheus text format — the /v1/metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.WritePrometheus()))
	})
}
