// Package obs is the observability layer for the simulation stack: a
// kernel probe (KernelProbe, implementing sim.Probe), a domain probe
// (DomainProbe, implementing network.Probe, fault.Probe and mgmt.Probe),
// a metrics registry with per-experiment scopes and stable JSON
// snapshots (Registry), a Chrome trace_event writer loadable in Perfetto
// (Trace), and a suite observer (SuiteObserver) that wires them through
// the experiment runner.
//
// The layer costs nothing when disabled: an unobserved sim.Kernel holds a
// nil probe behind a single nil-check per hook site, and the runner skips
// every observer call when no observer is configured. The benchmark's
// rung.kernel_event and rung.kernel_event_probed time both the nil-probe
// and attached-probe kernel to keep that claim honest.
//
// Attribution works by goroutine: each suite worker binds its
// experiment's probe set — one KernelProbe and one DomainProbe — to its
// own goroutine id before calling the spec's Run function, and a
// process-global sim.SetKernelHook attaches the bound set to every
// kernel the spec constructs, however deep inside machine/network/sched
// code. Fabrics and monitoring simulations take their probe from their
// kernel, so the same hook observes them; fault estimates ask the
// fault package's provider, which returns the bound set. Experiments run
// synchronously on their worker goroutine, so the binding is exact:
// every count a SpecObs publishes comes from its own bound probes, never
// from process-wide state, so it does not depend on which specs run
// beside it. One observed suite runs at a time (the hook is
// process-global); SuiteObserver.Begin panics if a hook is already
// installed rather than silently replacing it.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// Merges serialize on a per-Do mutex and only sum and max, so the merged
// counts do not depend on how tasks land on goroutines (only
// DomainProbe's float link-busy sum may differ in its last bits). Nested
// Do calls nest naturally: the inner Do's submitter is bound to an outer
// child probe, which becomes the inner parent.
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

// StartAttempt begins observing one experiment. It must be called on the
// goroutine that will run the spec (the binding is per-goroutine), with
// the worker index that goroutine represents. The returned SpecObs must
// be closed with Done on the same goroutine, or with Abandon from a
// watchdog.
func (o *SuiteObserver) StartAttempt(id, title string, worker int) *SpecObs {
	so := &SpecObs{
		o:      o,
		id:     id,
		title:  title,
		worker: worker,
		start:  time.Now(),
		probe:  NewKernelProbe(),
		domain: NewDomainProbe(),
	}
	o.binding.Store(goid(), &probeSet{so.probe, so.domain})
	return so
}

// SpecObs observes one experiment attempt. Exactly one of Done or Abandon
// finalizes it; whichever loses the race is a no-op, so a spec completing
// just as its watchdog fires cannot double-publish.
type SpecObs struct {
	o         *SuiteObserver
	id        string
	title     string
	worker    int
	start     time.Time
	finished  atomic.Bool
	wall      time.Duration
	failed    bool
	abandoned bool
	probe     *KernelProbe
	domain    *DomainProbe
}

// Done finishes the observation on the spec's goroutine: it unbinds the
// probes from the goroutine and publishes the result (see finish). err
// is the spec's failure, nil on success. If the attempt was already
// abandoned by a watchdog, Done only unbinds: the suite has moved on,
// and a late result must not perturb its metrics.
func (so *SpecObs) Done(err error) {
	so.o.binding.Delete(goid())
	if so.finished.CompareAndSwap(false, true) {
		so.finish(err, false)
	}
}

// Abandon finalizes a hung attempt from outside its goroutine (the
// runner's watchdog); err is the timeout. It reports whether it won the
// finalization race: false means Done already ran — the spec finished
// just under the wire — and the caller should use the real result
// instead.
func (so *SpecObs) Abandon(err error) bool {
	if !so.finished.CompareAndSwap(false, true) {
		return false
	}
	so.finish(err, true)
	return true
}

// finish publishes the attempt once, for whichever of Done and Abandon
// won the race: the scope named by the spec id gets host_seconds and a
// failures counter, the trace a slice on the worker's track, the
// progress stream one line, and the suite its totals. A finished attempt
// also publishes its probes' counters. An abandoned one leaves them
// unread — the hung goroutine may still be writing to them — and counts
// a timeout instead.
func (so *SpecObs) finish(err error, abandoned bool) {
	o := so.o
	so.wall = time.Since(so.start)
	so.failed = err != nil
	so.abandoned = abandoned

	scope := o.registry.Scope(so.id)
	scope.Set("host_seconds", so.wall.Seconds())
	if so.failed {
		scope.Add("failures", 1)
	}
	var fired, scheduled uint64
	args := map[string]any{"failed": so.failed}
	events, status := "-", "ok"
	if abandoned {
		scope.Add("timeouts", 1)
		args["timeout"] = true
		status = "TIMEOUT: " + firstLine(err.Error())
	} else {
		fired, scheduled = so.probe.Fired(), so.probe.Scheduled()
		so.probe.PublishTo(scope)
		if !so.domain.Empty() {
			// No span: a spec's domain probe sums many kernel runs, so
			// busy time over one run's span is no utilization.
			so.domain.PublishTo(scope, 0)
		}
		args["events_fired"] = fired
		args["events_sched"] = scheduled
		args["fastpath_hits"] = so.probe.FastPathHits()
		args["peak_pending"] = so.probe.PeakPending()
		args["virtual_seconds"] = so.probe.LastVirtualTime().Seconds()
		events = strconv.FormatUint(fired, 10)
		if so.failed {
			// A panic error carries a multi-line stack; the progress
			// stream gets the headline, the suite error the full text.
			status = "FAILED: " + firstLine(err.Error())
		}
	}

	if o.trace != nil {
		o.trace.Span(so.id+": "+so.title, so.worker, so.start, so.wall, args)
	}

	// The progress line prints under o.mu: the writer need not be
	// concurrency-safe, and [n/total] counters appear in order.
	o.mu.Lock()
	o.done++
	o.totalFired += fired
	o.totalEvents += scheduled
	if so.failed {
		o.totalFailures++
	}
	if abandoned {
		o.totalTimeouts++
	}
	if o.progress != nil {
		fmt.Fprintf(o.progress, "[%2d/%d] %-4s %-42s %10s %12s events  %s\n",
			o.done, o.total, so.id, so.title,
			so.wall.Round(time.Microsecond), events, status)
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

// Wall returns the spec's host wall-clock duration (valid after Done or
// Abandon).
func (so *SpecObs) Wall() time.Duration { return so.wall }

// Failed reports whether the spec returned an error (valid after Done or
// Abandon).
func (so *SpecObs) Failed() bool { return so.failed }

// Abandoned reports whether the attempt was finalized by a watchdog
// rather than by its own Done. An abandoned attempt's probe counters are
// not safe to read: its goroutine may still be running.
func (so *SpecObs) Abandoned() bool { return so.abandoned }

// Probe returns the spec's kernel probe with its accumulated counters.
// Do not read it for an Abandoned observation.
func (so *SpecObs) Probe() *KernelProbe { return so.probe }

// Domain returns the spec's domain probe with its accumulated model
// telemetry. Do not read it for an Abandoned observation.
func (so *SpecObs) Domain() *DomainProbe { return so.domain }
