package experiments

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"northstar/internal/mc"
	"northstar/internal/obs"
	"northstar/internal/sim"
)

// newTestKernel returns a kernel whose run fires exactly events+1 events
// (a self-rescheduling chain plus its seed event).
func newTestKernel(events int) *sim.Kernel {
	k := sim.New(1)
	n := 0
	var fn func()
	fn = func() {
		if n < events {
			n++
			k.After(sim.Microsecond, fn)
		}
	}
	k.After(0, fn)
	return k
}

// Every experiment ID must be unique: ByID's index and the parallel
// runner's result slots both key on it.
func TestAllIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range All() {
		if seen[s.ID] {
			t.Errorf("duplicate experiment ID %q", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestByIDIndexCoversAll(t *testing.T) {
	for _, want := range All() {
		s, err := ByID(want.ID)
		if err != nil {
			t.Fatalf("ByID(%q): %v", want.ID, err)
		}
		if s.ID != want.ID {
			t.Fatalf("ByID(%q) returned %q", want.ID, s.ID)
		}
	}
}

// The tables carry only virtual-time numbers, so any byte difference
// between worker counts is a real shared-state race or ordering bug —
// and any difference from the committed golden corpus is table drift.
// Diffing every worker count against the corpus (not only against the
// one-worker run) means a deterministic-but-wrong parallel refactor
// cannot pass by being consistently wrong.
func TestRunSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	var golden bytes.Buffer
	for _, s := range All() {
		g, err := os.ReadFile(filepath.Join("testdata", "golden", s.ID+".table"))
		if err != nil {
			t.Fatalf("no golden for %s (run `go test ./internal/experiments -run Golden -update`): %v", s.ID, err)
		}
		golden.Write(g)
	}
	var ref bytes.Buffer
	refTabs, err := RunSuite(&ref, Options{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), golden.Bytes()) {
		t.Fatalf("one-worker quick output differs from the committed golden corpus")
	}
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		tabs, err := RunSuite(&buf, Options{Quick: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(tabs) != len(refTabs) {
			t.Fatalf("workers=%d: %d tables, want %d", workers, len(tabs), len(refTabs))
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d output differs from the one-worker run", workers)
		}
	}
}

// A failure mid-suite must not drop the experiments after it: their
// tables still run, print, and return; the error names the failed ID.
func TestRunSpecsPartialFailure(t *testing.T) {
	boom := errors.New("boom")
	ok := func(id string) Spec {
		return Spec{ID: id, Title: "ok", Run: func(bool) (*Table, error) {
			tab := &Table{ID: id, Title: "ok", Columns: []string{"v"}}
			tab.AddRow("1")
			return tab, nil
		}}
	}
	specs := []Spec{
		ok("T1"),
		{ID: "T2", Title: "fails", Run: func(bool) (*Table, error) { return nil, boom }},
		ok("T3"),
	}
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		tabs, err := RunSpecs(&buf, specs, Options{Quick: true, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error for failing spec", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v does not wrap cause", workers, err)
		}
		if !strings.Contains(err.Error(), "T2") {
			t.Fatalf("workers=%d: error %v does not name failed ID", workers, err)
		}
		if len(tabs) != 3 || tabs[0] == nil || tabs[1] != nil || tabs[2] == nil {
			t.Fatalf("workers=%d: slots = %v, want [T1 nil T3]", workers, tabs)
		}
		out := buf.String()
		if !strings.Contains(out, "T1") || !strings.Contains(out, "T3") {
			t.Fatalf("workers=%d: surviving tables not printed:\n%s", workers, out)
		}
		if strings.Contains(out, "fails") {
			t.Fatalf("workers=%d: failed table printed:\n%s", workers, out)
		}
	}
}

// Output must stream in suite order even when later specs finish first.
func TestRunSpecsOrderedStreaming(t *testing.T) {
	mk := func(id string) Spec {
		return Spec{ID: id, Title: id, Run: func(bool) (*Table, error) {
			tab := &Table{ID: id, Title: id, Columns: []string{"v"}}
			tab.AddRow(id)
			return tab, nil
		}}
	}
	specs := []Spec{mk("A"), mk("B"), mk("C"), mk("D")}
	var buf bytes.Buffer
	if _, err := RunSpecs(&buf, specs, Options{Quick: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	order := []int{
		strings.Index(buf.String(), "== A"),
		strings.Index(buf.String(), "== B"),
		strings.Index(buf.String(), "== C"),
		strings.Index(buf.String(), "== D"),
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] < 0 || order[i] < order[i-1] {
			t.Fatalf("tables out of suite order: offsets %v\n%s", order, buf.String())
		}
	}
}

// brokenWriter fails every write after the first n bytes, like a pipe
// whose reader went away mid-stream.
type brokenWriter struct {
	n       int
	written int
}

var errPipe = errors.New("broken pipe")

func (b *brokenWriter) Write(p []byte) (int, error) {
	if b.written >= b.n {
		return 0, errPipe
	}
	b.written += len(p)
	return len(p), nil
}

// A write error on the table stream must surface in the returned error
// instead of printing truncated tables as if the run succeeded.
func TestRunSpecsWriteError(t *testing.T) {
	mk := func(id string) Spec {
		return Spec{ID: id, Title: id, Run: func(bool) (*Table, error) {
			tab := &Table{ID: id, Title: id, Columns: []string{"v"}}
			tab.AddRow(id)
			return tab, nil
		}}
	}
	specs := []Spec{mk("A"), mk("B"), mk("C")}
	for _, workers := range []int{1, 3} {
		w := &brokenWriter{n: 10} // dies inside the first table
		tabs, err := RunSpecs(w, specs, Options{Quick: true, Workers: workers})
		if !errors.Is(err, errPipe) {
			t.Fatalf("workers=%d: error %v does not wrap the write failure", workers, err)
		}
		// The specs themselves all ran: results are intact even though
		// printing stopped.
		for i, tab := range tabs {
			if tab == nil {
				t.Fatalf("workers=%d: spec %d result dropped on write error", workers, i)
			}
		}
	}
}

// With an observer attached, the table stream must stay byte-identical:
// observability writes only to its own sinks.
func TestRunSpecsObservedOutputIdentical(t *testing.T) {
	mk := func(id string) Spec {
		return Spec{ID: id, Title: id, Run: func(bool) (*Table, error) {
			tab := &Table{ID: id, Title: id, Columns: []string{"v"}}
			tab.AddRow(id)
			return tab, nil
		}}
	}
	specs := []Spec{mk("A"), mk("B"), mk("C"), mk("D")}
	var plain bytes.Buffer
	if _, err := RunSpecs(&plain, specs, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	var observed, progress, summary bytes.Buffer
	observer := obs.NewSuiteObserver(nil, obs.NewTrace(), &progress)
	_, err := RunSpecs(&observed, specs, Options{Workers: 2, Observer: observer, Summary: &summary})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatalf("observed table stream differs from plain run:\n%s\nvs\n%s", observed.String(), plain.String())
	}
	for _, id := range []string{"A", "B", "C", "D"} {
		if !strings.Contains(progress.String(), id) {
			t.Errorf("progress output missing spec %s:\n%s", id, progress.String())
		}
		if !strings.Contains(summary.String(), id) {
			t.Errorf("summary table missing spec %s:\n%s", id, summary.String())
		}
	}
	if !strings.Contains(summary.String(), "observability summary") {
		t.Errorf("summary table header missing:\n%s", summary.String())
	}
}

// The observer must attribute kernel events to the right spec even when
// specs run concurrently on different workers, and the summary table
// must show what the registry holds.
func TestRunSpecsObserverAttribution(t *testing.T) {
	mkSim := func(id string, events int) Spec {
		return Spec{ID: id, Title: id, Run: func(bool) (*Table, error) {
			k := newTestKernel(events)
			k.Run()
			tab := &Table{ID: id, Title: id, Columns: []string{"v"}}
			tab.AddRow(id)
			return tab, nil
		}}
	}
	specs := []Spec{mkSim("S1", 100), mkSim("S2", 2000), mkSim("S3", 50)}
	observer := obs.NewSuiteObserver(nil, nil, nil)
	var buf, summary bytes.Buffer
	if _, err := RunSpecs(&buf, specs, Options{Workers: 3, Observer: observer, Summary: &summary}); err != nil {
		t.Fatal(err)
	}
	reg := observer.Registry()
	for _, want := range []struct {
		id     string
		events int64
	}{{"S1", 101}, {"S2", 2001}, {"S3", 51}} {
		got := reg.Scope(want.id).Counter("events_fired")
		if got != want.events {
			t.Errorf("scope %s events_fired = %d, want %d", want.id, got, want.events)
		}
		// Columns: id, wall, events, peak pending, fastpath %, status.
		row := strings.Fields(summaryRow(t, summary.String(), want.id))
		if len(row) != 6 || row[2] != strconv.FormatInt(got, 10) || row[5] != "ok" {
			t.Errorf("summary row %v, want %d events and status ok", row, got)
		}
	}
	if got := reg.Scope("suite").Counter("events_fired"); got != 101+2001+51 {
		t.Errorf("suite events_fired = %d, want %d", got, 101+2001+51)
	}
}

// Every number the observer publishes for a spec must belong to that
// spec, however the work is spread over goroutines. The quick suite runs
// observed twice: on one suite worker with three mc pool helpers, so the
// propagator forks child probes across helper goroutines and merges
// them back, and on four suite workers with no helpers, so specs run
// side by side. The two registries must agree scope by scope: every
// counter, histogram and gauge exactly, except the wall-clock
// host_seconds.
func TestObservedMetricsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	t.Cleanup(func() { mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - 1) })
	observe := func(workers, helpers int) obs.Snapshot {
		mc.SetDefaultWorkers(helpers)
		o := obs.NewSuiteObserver(nil, nil, nil)
		if _, err := RunSuite(io.Discard, Options{Quick: true, Workers: workers, Observer: o}); err != nil {
			t.Fatalf("workers=%d helpers=%d: %v", workers, helpers, err)
		}
		return o.Registry().Snapshot()
	}
	one, four := observe(1, 3), observe(4, 0)
	if len(one.Scopes) != len(All())+1 || len(four.Scopes) != len(one.Scopes) {
		t.Fatalf("scopes: %d at one worker, %d at four, want one per spec plus suite (%d)",
			len(one.Scopes), len(four.Scopes), len(All())+1)
	}
	for i, a := range one.Scopes {
		b := four.Scopes[i]
		if a.Name != b.Name {
			t.Fatalf("scope %d: %q at one worker, %q at four", i, a.Name, b.Name)
		}
		diffScopes(t, a.Name, a, b)
	}
}

// diffScopes reports where two snapshots of the scope at path disagree
// in anything but host_seconds; a is from the run with pool helpers and
// b from the one without.
func diffScopes(t *testing.T, path string, a, b obs.ScopeSnapshot) {
	t.Helper()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("%s counters differ:\n%v\n%v", path, a.Counters, b.Counters)
	}
	if !reflect.DeepEqual(a.Histograms, b.Histograms) {
		t.Errorf("%s histograms differ:\n%v\n%v", path, a.Histograms, b.Histograms)
	}
	if len(a.Gauges) != len(b.Gauges) {
		t.Errorf("%s gauges differ:\n%v\n%v", path, a.Gauges, b.Gauges)
	}
	for name, va := range a.Gauges {
		if name == "host_seconds" {
			continue
		}
		if vb, ok := b.Gauges[name]; !ok || va != vb {
			t.Errorf("%s gauge %s: %v vs %v", path, name, va, vb)
		}
	}
	if len(a.Domains) != len(b.Domains) {
		t.Errorf("%s has %d domains vs %d", path, len(a.Domains), len(b.Domains))
		return
	}
	for i, d := range a.Domains {
		if d.Name != b.Domains[i].Name {
			t.Errorf("%s domain %d: %q vs %q", path, i, d.Name, b.Domains[i].Name)
			continue
		}
		diffScopes(t, path+"/"+d.Name, d, b.Domains[i])
	}
}

// ByID's lazily built index must be safe under concurrent first use.
func TestByIDConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range []string{"E1", "X7", "E6b"} {
				if _, err := ByID(id); err != nil {
					t.Errorf("ByID(%q): %v", id, err)
				}
			}
		}()
	}
	wg.Wait()
}
