package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one bench-owned interval around a call into a layer. Spans of
// one op share op; parent is the id of the span that caused this one (0
// for an op's root span). lane only places the span in the Chrome
// trace: spans that run concurrently get different lanes so the viewer
// never has to nest two that merely overlap.
type span struct {
	name       string
	id, parent int
	op         int
	lane       int
	start, end time.Duration // offsets from the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced ops run the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, op: op, lane: lane, start: now, end: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// add records a span whose both ends are already known.
func (r *recorder) add(name string, parent, op, lane int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, op: op, lane: lane,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	return len(r.spans)
}

// closed returns the finished spans.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (parallel dispatches) and may stick out of the parent; both are
// handled by clipping to the parent and taking the union.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// durationsByName returns the durations, in seconds, of every span with
// the given name.
func durationsByName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfByName is durationsByName for self times.
func selfByName(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, self[s.id].Seconds())
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, readable by chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace dumps the spans to path, creating its directory.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op_id": s.op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
