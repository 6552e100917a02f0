package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"northstar/internal/obs"
)

// traceEventCap bounds the slices kept for the Chrome trace. A serve run
// makes hundreds of thousands of requests; the medians use every span,
// the trace file shows the first ones.
const traceEventCap = 50000

// tracer records what a traced run learns at layer boundaries: spans
// (their self time feeds the span.* metrics and the first traceEventCap
// go to a Chrome trace), per-op samples and running totals. It is only
// built for traced runs; untraced code paths hold a nil *tracer and do
// not call it.
type tracer struct {
	trace *obs.Trace

	mu      sync.Mutex
	self    map[string][]float64 // span name -> self time per span, seconds
	samples map[string][]float64 // per-op values (events per iteration, ...)
	totals  map[string]float64   // counters summed over the run
	kept    int                  // slices handed to trace
	dropped int                  // slices beyond traceEventCap
}

func newTracer() *tracer {
	return &tracer{
		trace:   obs.NewTrace(),
		self:    make(map[string][]float64),
		samples: make(map[string][]float64),
		totals:  make(map[string]float64),
	}
}

// span records one span of name on track tid that started at start and
// lasted dur, of which children covered the given time; its self time
// is the difference.
func (t *tracer) span(name string, tid int, start time.Time, dur, children time.Duration) {
	t.mu.Lock()
	t.self[name] = append(t.self[name], (dur - children).Seconds())
	keep := t.kept < traceEventCap
	if keep {
		t.kept++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if keep {
		t.trace.Span(name, tid, start, dur, nil)
	}
}

// sample records one per-op observation of name.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// add adds v to the running total of name.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.totals[name] += v
	t.mu.Unlock()
}

// medians returns each span's median self time as span.<name> in
// milliseconds, and each sample's median under its own name.
func (t *tracer) medians() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]float64, len(t.self)+len(t.samples))
	for name, v := range t.self {
		m["span."+name] = median(v) * 1e3
	}
	for name, v := range t.samples {
		m[name] = median(v)
	}
	return m
}

func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[name]
}

// writeTrace writes the kept spans as Chrome trace_event JSON into dir.
func (t *tracer) writeTrace(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	if t.dropped > 0 {
		t.trace.Instant(fmt.Sprintf("%d later spans not kept", t.dropped), 0, time.Now(), nil)
	}
	t.mu.Unlock()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.trace.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
