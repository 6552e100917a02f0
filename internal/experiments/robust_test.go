package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"northstar/internal/obs"
)

// okSpec returns a healthy spec printing a one-row table.
func okSpec(id string) Spec {
	return Spec{ID: id, Title: id, Run: func(bool) (*Table, error) {
		tab := &Table{ID: id, Title: id, Columns: []string{"v"}}
		tab.AddRow(id)
		return tab, nil
	}}
}

// A panicking spec must fail alone: the suite neither crashes nor
// deadlocks, the surviving specs print byte-identically to a run without
// the bad spec, and the error carries the panic value and stack. Runs at
// workers 1, 2, and 8 so the ordered printer's close(done[i]) path is
// exercised with one worker and with several (and under -race in CI).
func TestRunSpecsPanicIsolation(t *testing.T) {
	healthy := []Spec{okSpec("P1"), okSpec("P2"), okSpec("P3"), okSpec("P4")}
	var ref bytes.Buffer
	if _, err := RunSpecs(&ref, healthy, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		healthy[0],
		healthy[1],
		{ID: "PX", Title: "panics", Run: func(bool) (*Table, error) { panic("kaboom") }},
		healthy[2],
		healthy[3],
	}
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		tabs, err := RunSpecs(&buf, specs, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error for panicking spec", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T does not wrap *PanicError: %v", workers, err, err)
		}
		if pe.ID != "PX" || pe.Value != "kaboom" {
			t.Fatalf("workers=%d: PanicError = {%s %v}", workers, pe.ID, pe.Value)
		}
		if !strings.Contains(pe.Stack, "runShielded") {
			t.Fatalf("workers=%d: panic stack missing frames:\n%s", workers, pe.Stack)
		}
		if tabs[2] != nil {
			t.Fatalf("workers=%d: panicking spec produced a table", workers)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d: surviving output differs from healthy run:\n%s\nvs\n%s",
				workers, buf.String(), ref.String())
		}
	}
}

// With an observer attached, a panicking spec must still be marked
// FAILED in the summary table and counted in the registry.
func TestRunSpecsPanicObserved(t *testing.T) {
	specs := []Spec{
		okSpec("P1"),
		{ID: "PX", Title: "panics", Run: func(bool) (*Table, error) { panic("kaboom") }},
	}
	var buf, summary bytes.Buffer
	observer := obs.NewSuiteObserver(nil, nil, nil)
	_, err := RunSpecs(&buf, specs, Options{Workers: 2, Observer: observer, Summary: &summary})
	if err == nil {
		t.Fatal("no error for panicking spec")
	}
	row := summaryRow(t, summary.String(), "PX")
	if !strings.Contains(row, "FAILED") {
		t.Fatalf("summary row for PX not FAILED: %q", row)
	}
	if got := observer.Registry().Scope("PX").Counter("failures"); got != 1 {
		t.Fatalf("PX failures counter = %d, want 1", got)
	}
	if got := observer.Registry().Scope("suite").Counter("failures"); got != 1 {
		t.Fatalf("suite failures counter = %d, want 1", got)
	}
}

// A hung spec must be abandoned at the watchdog deadline: the suite
// finishes, the other specs print, the error is a *TimeoutError with a
// goroutine dump, and the summary marks the spec TIMEOUT.
func TestRunSpecsWatchdogTimeout(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unpark the abandoned goroutine
	specs := []Spec{
		okSpec("W1"),
		{ID: "WH", Title: "hangs", Run: func(bool) (*Table, error) {
			<-release
			return nil, errors.New("released after abandonment")
		}},
		okSpec("W2"),
	}
	// Observed or not, at one worker or several, the runner decides the
	// outcome in the same place.
	for _, tc := range []struct {
		workers  int
		observed bool
	}{{1, true}, {3, true}, {1, false}, {3, false}} {
		name := fmt.Sprintf("workers=%d observed=%t", tc.workers, tc.observed)
		var buf, summary bytes.Buffer
		opts := Options{Workers: tc.workers, SpecTimeout: 100 * time.Millisecond}
		if tc.observed {
			opts.Observer, opts.Summary = obs.NewSuiteObserver(nil, nil, nil), &summary
		}
		start := time.Now()
		tabs, err := RunSpecs(&buf, specs, opts)
		if err == nil {
			t.Fatalf("%s: no error for hung spec", name)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %T does not wrap *TimeoutError", name, err)
		}
		if te.ID != "WH" || te.Timeout != 100*time.Millisecond {
			t.Fatalf("%s: TimeoutError = {%s %s}", name, te.ID, te.Timeout)
		}
		if !strings.Contains(te.Stacks, "goroutine") {
			t.Fatalf("%s: timeout error missing goroutine dump", name)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("%s: suite took %s; watchdog did not fire", name, elapsed)
		}
		if tabs[0] == nil || tabs[1] != nil || tabs[2] == nil {
			t.Fatalf("%s: slots = %v, want [W1 nil W2]", name, tabs)
		}
		out := buf.String()
		if !strings.Contains(out, "W1") || !strings.Contains(out, "W2") {
			t.Fatalf("%s: surviving tables not printed:\n%s", name, out)
		}
		if !tc.observed {
			continue
		}
		row := summaryRow(t, summary.String(), "WH")
		if !strings.Contains(row, "TIMEOUT") {
			t.Fatalf("%s: summary row for WH not TIMEOUT: %q", name, row)
		}
		if got := opts.Observer.Registry().Scope("WH").Counter("timeouts"); got != 1 {
			t.Fatalf("%s: WH timeouts counter = %d, want 1", name, got)
		}
	}
}

// The end-to-end fault-injection contract that CI smokes via the CLI:
// appending FaultSpecs to a healthy suite exits with an error naming
// every fault spec, while stdout stays byte-identical to the healthy
// run and the summary covers every spec.
func TestFaultSpecsIsolation(t *testing.T) {
	healthy := []Spec{okSpec("H1"), okSpec("H2"), okSpec("H3")}
	var ref bytes.Buffer
	if _, err := RunSpecs(&ref, healthy, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	specs := append(append([]Spec{}, healthy...), FaultSpecs()...)
	var buf, summary bytes.Buffer
	observer := obs.NewSuiteObserver(nil, nil, nil)
	tabs, err := RunSpecs(&buf, specs, Options{
		Workers: 4, SpecTimeout: 500 * time.Millisecond,
		Observer: observer, Summary: &summary,
	})
	if err == nil {
		t.Fatal("fault-injected suite reported success")
	}
	for _, fs := range FaultSpecs() {
		if !strings.Contains(err.Error(), fs.ID) {
			t.Errorf("suite error does not name %s", fs.ID)
		}
		if !strings.Contains(summary.String(), fs.ID) {
			t.Errorf("summary table missing %s", fs.ID)
		}
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatalf("fault-injected stdout differs from healthy run:\n%s\nvs\n%s",
			buf.String(), ref.String())
	}
	for i := range healthy {
		if tabs[i] == nil {
			t.Errorf("healthy spec %s lost its table", healthy[i].ID)
		}
	}
	for i := len(healthy); i < len(specs); i++ {
		if tabs[i] != nil {
			t.Errorf("fault spec %s produced a table", specs[i].ID)
		}
	}
	if !strings.Contains(summaryRow(t, summary.String(), "FI-HANG"), "TIMEOUT") {
		t.Errorf("FI-HANG summary row not TIMEOUT:\n%s", summary.String())
	}
}

// A ragged hand-built table must be caught by Validate, not crash Fprint.
func TestTableValidate(t *testing.T) {
	good := &Table{ID: "G", Title: "g", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	for _, bad := range []*Table{
		{Title: "no id", Columns: []string{"a"}},
		{ID: "C", Title: "no columns"},
		{ID: "R", Title: "ragged", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2", "3"}}},
		{ID: "S", Title: "short row", Columns: []string{"a", "b"}, Rows: [][]string{{"1"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("table %q/%q passed validation", bad.ID, bad.Title)
		}
	}
}

// summaryRow extracts the summary-table line starting with the given id.
func summaryRow(t *testing.T, summary, id string) string {
	t.Helper()
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, id+" ") {
			return line
		}
	}
	t.Fatalf("summary has no row for %s:\n%s", id, summary)
	return ""
}
