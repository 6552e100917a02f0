package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"northstar/internal/sim"
)

func runChain(k *sim.Kernel, events int) {
	n := 0
	var fn func()
	fn = func() {
		if n < events {
			n++
			k.After(sim.Microsecond, fn)
		}
	}
	k.After(0, fn)
	k.Run()
}

func TestKernelProbeCounts(t *testing.T) {
	k := sim.New(1)
	p := NewKernelProbe()
	k.SetProbe(p)
	runChain(k, 100)
	if p.Fired() != 101 || p.Scheduled() != 101 {
		t.Fatalf("fired=%d scheduled=%d, want 101 each", p.Fired(), p.Scheduled())
	}
	if p.FastPathHits() != 1 { // only the seed After(0)
		t.Fatalf("fastPath=%d, want 1", p.FastPathHits())
	}
	if p.PeakPending() < 1 {
		t.Fatalf("peakPending=%d, want >= 1", p.PeakPending())
	}
	if p.DepthHistogram().Count() != 101 {
		t.Fatalf("depth histogram count=%d, want 101", p.DepthHistogram().Count())
	}
	if p.LastVirtualTime() <= 0 {
		t.Fatalf("lastVT=%v, want > 0", p.LastVirtualTime())
	}
}

// TestKernelProbePublishTo pins what a kernel probe publishes: exactly
// three counters and two gauges, plus the queue-depth histogram.
func TestKernelProbePublishTo(t *testing.T) {
	k := sim.New(1)
	p := NewKernelProbe()
	k.SetProbe(p)
	k.At(5, func() {})
	runChain(k, 10)

	reg := NewRegistry()
	p.PublishTo(reg.Scope("T1"))
	snap := reg.Snapshot().Scopes[0]
	wantCounters := map[string]int64{
		"events_scheduled": 12,
		"events_fired":     12,
		"fastpath_hits":    1, // the chain's seed After(0)
	}
	if !reflect.DeepEqual(snap.Counters, wantCounters) {
		t.Errorf("counters = %v, want %v", snap.Counters, wantCounters)
	}
	wantGauges := map[string]float64{"peak_pending": 2, "virtual_seconds": 5}
	if !reflect.DeepEqual(snap.Gauges, wantGauges) {
		t.Errorf("gauges = %v, want %v", snap.Gauges, wantGauges)
	}
	if n := snap.Histograms["queue_depth"].Count; n != 12 {
		t.Errorf("queue_depth histogram holds %d samples, want 12", n)
	}
}

func TestRegistrySnapshotStable(t *testing.T) {
	reg := NewRegistry()
	b := reg.Scope("beta")
	a := reg.Scope("alpha")
	a.Add("c2", 2)
	a.Add("c1", 1)
	a.Set("g", 3.5)
	a.Max("g", 2.0) // must not lower
	b.Add("n", 7)

	var buf1, buf2 bytes.Buffer
	if err := reg.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two snapshots of identical state differ")
	}

	snap := reg.Snapshot()
	if len(snap.Scopes) != 2 || snap.Scopes[0].Name != "alpha" || snap.Scopes[1].Name != "beta" {
		t.Fatalf("scopes not sorted: %+v", snap.Scopes)
	}
	if snap.Schema != SnapshotSchema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	if snap.Scopes[0].Gauges["g"] != 3.5 {
		t.Fatalf("Max lowered gauge to %g", snap.Scopes[0].Gauges["g"])
	}

	// JSON must round-trip into a generic document (the format consumers
	// see), with sorted scope order preserved.
	var doc map[string]any
	if err := json.Unmarshal(buf1.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}

func TestRegistryConcurrentScopes(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Scope("shared").Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Scope("shared").Counter("n"); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace()
	tr.NameThread(0, "worker 0")
	tr.Span("E1: curves", 0, tr.Start(), 1500000, map[string]any{"events_fired": 42})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Phase)
	}
	if phases[0] != "M" || phases[1] != "X" {
		t.Fatalf("phases = %v, want [M X]", phases)
	}
	if doc.TraceEvents[1].Args["events_fired"].(float64) != 42 {
		t.Fatalf("span args lost: %+v", doc.TraceEvents[1].Args)
	}
}

func TestSuiteObserverBindsPerGoroutine(t *testing.T) {
	o := NewSuiteObserver(nil, NewTrace(), nil)
	o.Begin(2, 2)

	var wg sync.WaitGroup
	counts := []int{100, 300}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			so := o.Start([]string{"A", "B"}[w], "spec", w)
			so.Run(func() {
				k := sim.New(1) // hook must attach this goroutine's probe
				if k.Probe() == nil {
					t.Errorf("worker %d: kernel got no probe", w)
					return
				}
				runChain(k, counts[w])
			})
			so.Finish(nil, false)
		}(w)
	}
	wg.Wait()
	o.End()

	if got := o.Registry().Scope("A").Counter("events_fired"); got != 101 {
		t.Errorf("scope A events_fired = %d, want 101", got)
	}
	if got := o.Registry().Scope("B").Counter("events_fired"); got != 301 {
		t.Errorf("scope B events_fired = %d, want 301", got)
	}
	if got := o.Registry().Scope("suite").Counter("events_fired"); got != 402 {
		t.Errorf("suite events_fired = %d, want 402", got)
	}
	// After End the hook is gone: new kernels stay unobserved.
	if sim.New(1).Probe() != nil {
		t.Error("kernel hook leaked past End")
	}
	// One metadata event per worker plus one span per spec.
	if got := o.Trace().Len(); got != 4 {
		t.Errorf("trace events = %d, want 4", got)
	}
}

// Run binds only while its function runs: a kernel built on the same
// goroutine before or after it stays unobserved.
func TestSpecObsRunBindsOnlyInside(t *testing.T) {
	o := NewSuiteObserver(nil, nil, nil)
	o.Begin(1, 1)
	defer o.End()
	so := o.Start("A", "spec", 0)
	if sim.New(1).Probe() != nil {
		t.Error("Start bound the calling goroutine")
	}
	so.Run(func() {
		if sim.New(1).Probe() == nil {
			t.Error("kernel built inside Run got no probe")
		}
	})
	if sim.New(1).Probe() != nil {
		t.Error("binding outlived Run")
	}
	so.Finish(nil, false)
}

// A nil observer starts a nil SpecObs: Run still runs its function,
// and Finish publishes nothing.
func TestNilSpecObs(t *testing.T) {
	var o *SuiteObserver
	so := o.Start("A", "spec", 0)
	if so != nil {
		t.Fatalf("nil observer started %v, want nil", so)
	}
	ran := false
	so.Run(func() { ran = true })
	if !ran {
		t.Error("nil SpecObs did not run its function")
	}
	so.Finish(errors.New("boom"), true)
}

func TestSuiteObserverBeginPanicsIfHookInstalled(t *testing.T) {
	sim.SetKernelHook(func(*sim.Kernel) {})
	defer sim.SetKernelHook(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin did not panic with a kernel hook already installed")
		}
	}()
	NewSuiteObserver(nil, nil, nil).Begin(1, 1)
}

// TestProgressLinesSerializedAndOrdered drives Finish from many
// goroutines into a plain bytes.Buffer: under -race this proves progress
// writes are serialized, and the [n/total] prefixes must come out
// monotonic.
func TestProgressLinesSerializedAndOrdered(t *testing.T) {
	var buf bytes.Buffer
	o := NewSuiteObserver(nil, nil, &buf)
	o.Begin(8, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o.Start(string(rune('A'+w)), "spec", w%4).Finish(nil, false)
		}(w)
	}
	wg.Wait()
	o.End()

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("progress lines = %d, want 8:\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		want := "[" + string(rune('0'+i+1)) + "/8]"
		if i+1 < 10 {
			want = "[ " + string(rune('0'+i+1)) + "/8]"
		}
		if !strings.HasPrefix(ln, want) {
			t.Fatalf("line %d = %q, want prefix %q (out-of-order counter)", i, ln, want)
		}
	}
}

func TestGoidStablePerGoroutine(t *testing.T) {
	a, b := goid(), goid()
	if a != b || a == 0 {
		t.Fatalf("goid unstable on one goroutine: %d vs %d", a, b)
	}
	ch := make(chan uint64)
	go func() { ch <- goid() }()
	if other := <-ch; other == a {
		t.Fatalf("distinct goroutines share id %d", a)
	}
}

// A timed-out attempt publishes the timeout, not its probes: the kernel
// it ran inside Run counts no events_fired, because the runner never
// reads an abandoned spec's probes.
func TestSpecObsTimedOutPublishesNoProbe(t *testing.T) {
	var progress bytes.Buffer
	o := NewSuiteObserver(nil, NewTrace(), &progress)
	o.Begin(1, 1)
	so := o.Start("A", "hangs", 0)
	so.Run(func() { runChain(sim.New(1), 10) })
	so.Finish(errors.New("deadline"), true)
	o.End()

	scope := o.Registry().Scope("A")
	if got := scope.Counter("timeouts"); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := scope.Counter("failures"); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := scope.Counter("events_fired"); got != 0 {
		t.Errorf("events_fired = %d, want 0 (a timed-out attempt publishes no probe)", got)
	}
	if got := o.Registry().Scope("suite").Counter("timeouts"); got != 1 {
		t.Errorf("suite timeouts = %d, want 1", got)
	}
	if !strings.Contains(progress.String(), "TIMEOUT") {
		t.Errorf("progress line missing TIMEOUT: %q", progress.String())
	}
	if got := strings.Count(progress.String(), "\n"); got != 1 {
		t.Errorf("progress lines = %d, want 1", got)
	}
}

// A multi-line failure (panic stack) must reach the progress stream as a
// single headline line, not a stack dump per spec.
func TestProgressTruncatesMultilineErrors(t *testing.T) {
	var progress bytes.Buffer
	o := NewSuiteObserver(nil, nil, &progress)
	o.Begin(1, 1)
	o.Start("A", "panics", 0).Finish(errors.New("boom\ngoroutine 7 [running]:\nmain.explode()"), false)
	o.End()
	if got := strings.Count(progress.String(), "\n"); got != 1 {
		t.Fatalf("progress lines = %d, want 1:\n%s", got, progress.String())
	}
	if !strings.Contains(progress.String(), "FAILED: boom") {
		t.Fatalf("progress lost the headline: %q", progress.String())
	}
}
