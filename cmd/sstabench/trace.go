package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records a span around every call the benchmark makes into a
// layer, plus the per-layer metric samples read at those calls. Spans
// stay in memory until the run ends. A nil *tracer records nothing: the
// untraced passes that produce the end-to-end numbers run with nil.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
	samples  map[string][]float64
}

type span struct {
	name       string
	parent     int // index into spans; -1 at the root
	tid        int // lane in the trace viewer: one per goroutine role
	start, end time.Duration
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, samples: make(map[string][]float64)}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, tid: tid, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// call runs fn inside a span and returns its wall time (measured even
// when t is nil).
func (t *tracer) call(name string, parent int, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.begin(name, parent, 0)
	fn()
	return t.end(id)
}

// lane runs fn inside a root span on trace lane tid, one lane per
// concurrent goroutine role, and returns the span's duration (0 when t
// is nil).
func (t *tracer) lane(tid int, name string, fn func()) time.Duration {
	id := t.begin(name, -1, tid)
	fn()
	return t.end(id)
}

// add records one sample of a per-layer metric.
func (t *tracer) add(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[metric] = append(t.samples[metric], v)
}

// sampled returns the samples recorded for metric.
func (t *tracer) sampled(metric string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[metric]...)
}

// layerTime is one span name's aggregate: calls, total wall time, and
// self time (wall time minus the part covered by child spans).
type layerTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	MS    float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes aggregates closed spans by name, largest self time first.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	agg := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		self := dur - t.covered(s, children[i])
		a := agg[s.name]
		if a == nil {
			a = &layerTime{Name: s.name}
			agg[s.name] = a
		}
		a.Calls++
		a.MS += msOf(dur)
		a.Self += msOf(self)
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the child spans' intervals,
// clipped to the parent's.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		if c.end < 0 {
			continue
		}
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// traceEvent is one Chrome trace-event ("X", a complete event); load
// the file in chrome://tracing or https://ui.perfetto.dev.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // start, microseconds since the run began
	Dur  float64   `json:"dur"` // microseconds
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // span id of the caller, -1 at the root
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeChrome writes the closed spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	tf := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(t.spans))}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: usOf(s.start), Dur: usOf(s.end - s.start),
			Args: traceArgs{Workload: t.workload, ID: i, Parent: s.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, workload string, rows []layerTime) {
	fmt.Fprintf(w, "%s: per-layer time from the traced run (self = span minus child spans)\n", workload)
	fmt.Fprintf(w, "  %-32s %7s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %7d %12.3f %12.3f\n", r.Name, r.Calls, r.MS, r.Self)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
