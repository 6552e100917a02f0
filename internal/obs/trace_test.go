package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// traceDoc mirrors WriteJSON's envelope for round-trip checks.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *Trace) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestTraceEmptyWriteJSON(t *testing.T) {
	doc := decodeTrace(t, NewTrace())
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty trace encoded %d events, want 0", len(doc.TraceEvents))
	}
	// The array must still be present (not null): Perfetto rejects
	// documents without a traceEvents array.
	var buf bytes.Buffer
	if err := NewTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents": []`)) {
		t.Errorf("empty trace must encode traceEvents as [], got:\n%s", buf.String())
	}
}

func TestTraceJSONEscaping(t *testing.T) {
	tr := NewTrace()
	name := "spec \"E7\"\twith \\ backslash\nnewline <html> & unicode ✓"
	args := map[string]any{
		"note":  "quote \" slash \\ angle <b>",
		"count": 3,
	}
	tr.Span(name, 0, tr.Start(), time.Millisecond, args)
	tr.Instant(name+" instant", 1, tr.Start(), nil)

	doc := decodeTrace(t, tr)
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("decoded %d events, want 2", len(doc.TraceEvents))
	}
	if got := doc.TraceEvents[0].Name; got != name {
		t.Errorf("span name did not round-trip:\n got %q\nwant %q", got, name)
	}
	if got := doc.TraceEvents[0].Args["note"]; got != args["note"] {
		t.Errorf("args did not round-trip: got %q", got)
	}
}

func TestTraceConcurrentEmission(t *testing.T) {
	tr := NewTrace()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					tr.Span(fmt.Sprintf("span %d/%d", w, i), w, tr.Start(), time.Microsecond, nil)
				} else {
					tr.Instant(fmt.Sprintf("inst %d/%d", w, i), w, tr.Start(), nil)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := tr.Len(); got != workers*perWorker {
		t.Fatalf("recorded %d events, want %d", got, workers*perWorker)
	}
	doc := decodeTrace(t, tr)
	if len(doc.TraceEvents) != workers*perWorker {
		t.Fatalf("decoded %d events, want %d", len(doc.TraceEvents), workers*perWorker)
	}
	// WriteJSON sorts by (tid, ts): verify the invariant held.
	for i := 1; i < len(doc.TraceEvents); i++ {
		a, b := doc.TraceEvents[i-1], doc.TraceEvents[i]
		if a.TID > b.TID || (a.TID == b.TID && a.TsUS > b.TsUS) {
			t.Fatalf("events out of (tid, ts) order at %d: %+v before %+v", i, a, b)
		}
	}
}
