// Package obs is the observability layer for the simulation stack: a
// kernel probe (KernelProbe, implementing sim.Probe), a domain probe
// (DomainProbe, implementing network.Probe, fault.Probe and mgmt.Probe),
// a metrics registry with per-experiment scopes and stable JSON
// snapshots (Registry), a Chrome trace_event writer loadable in Perfetto
// (Trace), and a suite observer (SuiteObserver) that wires them through
// the experiment runner.
//
// The layer costs nothing when disabled: an unobserved sim.Kernel holds a
// nil probe behind a single nil-check per hook site, and a nil
// SuiteObserver starts a nil SpecObs, whose Run only calls its function
// and whose Finish does nothing. The benchmark's rung.kernel_event and
// rung.kernel_event_probed time both the nil-probe and attached-probe
// kernel to keep that claim honest.
//
// Attribution works by goroutine: SpecObs.Run binds the experiment's
// probe set — one KernelProbe and one DomainProbe — to the goroutine
// that runs the spec, and a process-global sim.SetKernelHook attaches
// the bound set to every kernel the spec constructs, however deep inside
// machine/network/sched code. Fabrics and monitoring simulations take
// their probe from their kernel, so the same hook observes them; fault
// estimates ask the fault package's provider, which returns the bound
// set. Experiments run synchronously on the goroutine Run binds, so the
// binding is exact: every count a SpecObs publishes comes from its own
// bound probes, never from process-wide state, so it does not depend on
// which specs run beside it. The suite runner decides each attempt's
// outcome and publishes it once with SpecObs.Finish. One observed suite
// runs at a time (the hook is process-global); SuiteObserver.Begin
// panics if a hook is already installed rather than silently replacing
// it.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"northstar/internal/fault"
	"northstar/internal/mc"
	"northstar/internal/mgmt"
	"northstar/internal/network"
	"northstar/internal/sim"
)

// SuiteObserver instruments one experiment-suite run. Construct with
// NewSuiteObserver, hand it to the runner (experiments.Options.Observer),
// and after the run encode Registry and Trace wherever they should go.
// Any of the three outputs may be nil-equivalent: a Registry is always
// kept (it is cheap), Trace may be nil, Progress may be nil.
type SuiteObserver struct {
	registry *Registry
	trace    *Trace
	progress io.Writer

	start time.Time
	total int

	mu            sync.Mutex
	done          int
	totalFired    uint64
	totalEvents   uint64
	totalFailures int64
	totalTimeouts int64

	binding sync.Map // goroutine id (uint64) -> *probeSet
}

// probeSet is one goroutine's bound probes: the kernel probe observing
// the harness and the domain probe observing the simulated cluster.
// The kernel hook attaches the set itself to each new kernel, so it
// implements sim.Probe, network.Probe, mgmt.Probe and fault.Probe, and
// the kernel's fabrics and monitors find the domain probe through it.
// The two probes fork and merge together across pool goroutines.
type probeSet struct {
	*KernelProbe
	*DomainProbe
}

var (
	_ sim.Probe     = (*probeSet)(nil)
	_ network.Probe = (*probeSet)(nil)
	_ mgmt.Probe    = (*probeSet)(nil)
	_ fault.Probe   = (*probeSet)(nil)
)

// NewSuiteObserver returns an observer writing metrics into registry
// (created fresh if nil), trace events into trace (may be nil), and live
// per-spec progress lines to progress (may be nil; typically os.Stderr —
// never the suite's stdout stream, which must stay byte-identical).
func NewSuiteObserver(registry *Registry, trace *Trace, progress io.Writer) *SuiteObserver {
	if registry == nil {
		registry = NewRegistry()
	}
	return &SuiteObserver{registry: registry, trace: trace, progress: progress}
}

// Registry returns the observer's metrics registry.
func (o *SuiteObserver) Registry() *Registry { return o.registry }

// Trace returns the observer's trace, or nil.
func (o *SuiteObserver) Trace() *Trace { return o.trace }

// Begin marks the suite start and installs the process-global hooks:
// the kernel hook, the mc propagator and the fault probe provider.
// total is the number of specs, workers the pool size (used to name
// trace tracks). The runner calls Begin/End; callers only construct.
//
// Only one observed suite may run at a time: Begin panics if a kernel
// hook is already installed (another observer, or anything else that
// called sim.SetKernelHook), so overlapping observed runs fail loudly
// instead of silently corrupting each other's metric attribution.
func (o *SuiteObserver) Begin(total, workers int) {
	o.start = time.Now()
	o.total = total
	if o.trace != nil {
		for w := 0; w < workers; w++ {
			o.trace.NameThread(w, fmt.Sprintf("worker %d", w))
		}
	}
	if !sim.InstallKernelHook(o.attach) {
		panic("obs: SuiteObserver.Begin: a sim kernel hook is already installed; only one observed suite may run at a time")
	}
	mc.SetPropagator(o.forkProbe)
	fault.SetProbeProvider(func() fault.Probe {
		if ps := o.bound(); ps != nil {
			return ps
		}
		return nil // not ps: a nil *probeSet would make a non-nil Probe
	})
}

// bound returns the probe set bound to the calling goroutine, or nil.
func (o *SuiteObserver) bound() *probeSet {
	if ps, ok := o.binding.Load(goid()); ok {
		return ps.(*probeSet)
	}
	return nil
}

// End removes the hooks and writes suite totals into the "suite" scope
// (specs/events/failures/timeouts counters, host_seconds gauge).
func (o *SuiteObserver) End() {
	fault.SetProbeProvider(nil)
	mc.SetPropagator(nil)
	sim.SetKernelHook(nil)
	o.mu.Lock()
	fired, scheduled := o.totalFired, o.totalEvents
	failures, timeouts := o.totalFailures, o.totalTimeouts
	o.mu.Unlock()
	s := o.registry.Scope("suite")
	s.Add("specs", int64(o.total))
	s.Add("events_fired", int64(fired))
	s.Add("events_scheduled", int64(scheduled))
	s.Add("failures", failures)
	s.Add("timeouts", timeouts)
	s.Set("host_seconds", time.Since(o.start).Seconds())
}

// attach is the sim kernel hook: it gives each new kernel the probe set
// bound to the constructing goroutine, if any.
func (o *SuiteObserver) attach(k *sim.Kernel) {
	if ps := o.bound(); ps != nil {
		k.SetProbe(ps)
	}
}

// forkProbe is the mc.Propagator: it carries probe attribution across
// the intra-experiment worker pool. Invoked once per mc Do on the
// submitting goroutine; if that goroutine has a bound probe, every task
// of the Do runs under a fresh child probe bound to whichever goroutine
// executes it (saving and restoring that goroutine's previous binding,
// so inline execution on the submitter works too), and the child's
// counters are merged into the submitter's probe when the task returns.
// Merges serialize on a per-Do mutex and only add integers and take
// maxima, so the merged totals do not depend on how tasks land on
// goroutines or in which order they finish. Nested Do calls nest
// naturally: the inner Do's submitter is bound to an outer child probe,
// which becomes the inner parent.
func (o *SuiteObserver) forkProbe() func(task func()) {
	parent := o.bound()
	if parent == nil {
		return nil // unobserved caller: nothing to attribute
	}
	var mu sync.Mutex
	return func(task func()) {
		child := &probeSet{NewKernelProbe(), NewDomainProbe()}
		id := goid()
		prev, hadPrev := o.binding.Load(id)
		o.binding.Store(id, child)
		defer func() {
			if hadPrev {
				o.binding.Store(id, prev)
			} else {
				o.binding.Delete(id)
			}
			mu.Lock()
			parent.KernelProbe.Merge(child.KernelProbe)
			parent.DomainProbe.Merge(child.DomainProbe)
			mu.Unlock()
		}()
		task()
	}
}

// Start begins observing one experiment attempt; worker is the index of
// the suite worker that waits for it, whose trace track gets the span.
// Start binds nothing: SpecObs.Run binds the goroutine that runs the
// spec. On a nil observer Start returns nil, and the nil SpecObs runs its
// function unobserved and publishes nothing, so callers need not branch
// on whether a run is observed.
func (o *SuiteObserver) Start(id, title string, worker int) *SpecObs {
	if o == nil {
		return nil
	}
	return &SpecObs{
		o:      o,
		id:     id,
		title:  title,
		worker: worker,
		start:  time.Now(),
		probes: &probeSet{NewKernelProbe(), NewDomainProbe()},
	}
}

// SpecObs observes one experiment attempt: Run binds the goroutine that
// runs the spec to the attempt's probe set, and Finish publishes the
// outcome the suite runner decided, once.
type SpecObs struct {
	o      *SuiteObserver
	id     string
	title  string
	worker int
	start  time.Time
	probes *probeSet
}

// Run calls fn with the calling goroutine bound to the attempt's probe
// set, so every kernel fn constructs, and every mc pool task and fault
// estimate it starts, reports to the attempt. The binding ends when fn
// returns. On a nil SpecObs, Run just calls fn.
func (so *SpecObs) Run(fn func()) {
	if so == nil {
		fn()
		return
	}
	id := goid()
	so.o.binding.Store(id, so.probes)
	defer so.o.binding.Delete(id)
	fn()
}

// Finish publishes the attempt once: the scope named by the spec id gets
// host_seconds and a failures counter, the trace a slice on the worker's
// track, the progress stream one line, and the suite its totals. err is
// the attempt's failure, nil on success. A finished attempt also
// publishes its probes' counters; a timed-out one leaves them unread —
// the abandoned goroutine may still be writing to them — and counts a
// timeout instead. The caller must not call Finish until Run has
// returned, unless timedOut is set. On a nil SpecObs, Finish does
// nothing.
func (so *SpecObs) Finish(err error, timedOut bool) {
	if so == nil {
		return
	}
	o := so.o
	wall := time.Since(so.start)
	failed := err != nil

	scope := o.registry.Scope(so.id)
	scope.Set("host_seconds", wall.Seconds())
	if failed {
		scope.Add("failures", 1)
	}
	var fired, scheduled uint64
	args := map[string]any{"failed": failed}
	events, status := "-", "ok"
	if timedOut {
		scope.Add("timeouts", 1)
		args["timeout"] = true
		status = "TIMEOUT: " + firstLine(err.Error())
	} else {
		p := so.probes.KernelProbe
		fired, scheduled = p.Fired(), p.Scheduled()
		p.PublishTo(scope)
		if !so.probes.DomainProbe.Empty() {
			// No span: a spec's domain probe sums many kernel runs, so
			// busy time over one run's span is no utilization.
			so.probes.DomainProbe.PublishTo(scope, 0)
		}
		args["events_fired"] = fired
		args["events_sched"] = scheduled
		args["fastpath_hits"] = p.FastPathHits()
		args["peak_pending"] = p.PeakPending()
		args["virtual_seconds"] = p.LastVirtualTime().Seconds()
		events = strconv.FormatUint(fired, 10)
		if failed {
			// A panic error carries a multi-line stack; the progress
			// stream gets the headline, the suite error the full text.
			status = "FAILED: " + firstLine(err.Error())
		}
	}

	if o.trace != nil {
		o.trace.Span(so.id+": "+so.title, so.worker, so.start, wall, args)
	}

	// The progress line prints under o.mu: the writer need not be
	// concurrency-safe, and [n/total] counters appear in order.
	o.mu.Lock()
	o.done++
	o.totalFired += fired
	o.totalEvents += scheduled
	if failed {
		o.totalFailures++
	}
	if timedOut {
		o.totalTimeouts++
	}
	if o.progress != nil {
		fmt.Fprintf(o.progress, "[%2d/%d] %-4s %-42s %10s %12s events  %s\n",
			o.done, o.total, so.id, so.title,
			wall.Round(time.Microsecond), events, status)
	}
	o.mu.Unlock()
}

// firstLine truncates s at its first newline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
