package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace accumulates events in the Chrome trace_event format ("JSON Object
// Format"), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// The suite observer records one complete ("X") slice per experiment on
// the track (tid) of the worker that ran it, plus thread-name metadata so
// tracks render as "worker 0", "worker 1", …
//
// Timestamps are host wall-clock microseconds relative to the trace
// start; virtual-time totals travel in each slice's args instead, since a
// trace viewer's timeline has to be host time to show where the host
// spent it.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []TraceEvent
}

// TraceEvent is one entry of the traceEvents array. Fields follow the
// trace_event naming (ph, ts, dur, pid, tid are the format's own keys).
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracePID is the process id grouping the tracks.
const tracePID = 1

// NewTrace returns a trace whose timestamps are relative to now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Start returns the wall-clock instant timestamps are measured from.
func (t *Trace) Start() time.Time { return t.start }

// Span records a complete slice named name on track tid, from start to
// start+dur in host time. args may be nil.
func (t *Trace) Span(name string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	t.add(TraceEvent{
		Name:  name,
		Cat:   "experiment",
		Phase: "X",
		TsUS:  float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		DurUS: float64(dur.Nanoseconds()) / 1e3,
		PID:   tracePID,
		TID:   tid,
		Args:  args,
	})
}

// Instant records a zero-duration instant event on track tid at host time
// ts.
func (t *Trace) Instant(name string, tid int, ts time.Time, args map[string]any) {
	t.add(TraceEvent{
		Name:  name,
		Cat:   "experiment",
		Phase: "i",
		TsUS:  float64(ts.Sub(t.start).Nanoseconds()) / 1e3,
		PID:   tracePID,
		TID:   tid,
		Args:  args,
	})
}

// NameThread attaches a human-readable name to track tid ("worker 3").
func (t *Trace) NameThread(tid int, name string) {
	t.add(TraceEvent{
		Name:  "thread_name",
		Phase: "M",
		PID:   tracePID,
		TID:   tid,
		Args:  map[string]any{"name": name},
	})
}

func (t *Trace) add(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len reports how many events have been recorded.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON writes the trace as a JSON object with a traceEvents array.
// Events are sorted by (tid, ts) so output is stable for a given set of
// recorded events; parallel workers finishing in different orders still
// produce the same file once their spans carry the same timestamps.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]TraceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].TsUS < events[j].TsUS
	})
	doc := struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []TraceEvent `json:"traceEvents"`
	}{"ms", events}
	enc, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}
