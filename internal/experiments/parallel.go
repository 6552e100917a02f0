package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"northstar/internal/obs"
)

// Options configures a suite run beyond the output writer.
type Options struct {
	// Quick shrinks each experiment's sweeps to CI scale.
	Quick bool
	// Workers sets the pool size: <= 0 selects runtime.GOMAXPROCS(0).
	// Width 1 runs the specs one at a time, on the same pool and in the
	// same longest-first order as any other width.
	Workers int
	// Observer, when non-nil, instruments the run: per-spec wall clock,
	// kernel event counts, trace slices, and live progress lines. The
	// observer never writes to the table stream, so stdout stays
	// byte-identical with or without one. Only one observed run may be
	// in flight at a time (the kernel hook is process-global).
	Observer *obs.SuiteObserver
	// Summary, when non-nil (and Observer is set), receives a
	// suite-summary table — per-spec wall clock, events fired, peak
	// pending, fast-path share, status — after the ordered table stream
	// completes. Point it at stderr to keep stdout canonical.
	Summary io.Writer
	// SpecTimeout bounds each spec's host wall-clock time; 0 disables
	// the watchdog. A spec that exceeds the budget is reported failed
	// with a *TimeoutError carrying a goroutine dump. The sim is
	// single-threaded per spec and Go cannot preempt-kill a goroutine,
	// so the watchdog abandons the spec's goroutine and result slot
	// rather than killing the process; the remaining specs still run
	// and print.
	SpecTimeout time.Duration
}

// RunSuite executes the full experiment suite (All) with the given
// options; see RunSpecs.
func RunSuite(w io.Writer, opts Options) ([]*Table, error) {
	return RunSpecs(w, All(), opts)
}

// RunSpecs executes specs on a bounded worker pool and prints each table
// to w in spec order as soon as it and all its predecessors are done.
// Every experiment is independent — each builds its own kernels,
// machines, and roadmaps — so the tables are byte-identical at any
// worker count; only host wall-clock changes. Every worker count, 1
// included, runs the same pool, dispatching the specs longest-first.
//
// A failing spec does not drop the specs after it: all specs run to
// completion, failed ones print nothing, and the returned slice holds
// one slot per spec in order with nil marking failures. A spec that
// panics or returns a malformed table fails the same way — the panic is
// recovered on the spec's goroutine and surfaces as a *PanicError. The
// returned error joins every per-spec failure and any table write error
// (nil if all succeeded).
func RunSpecs(w io.Writer, specs []Spec, opts Options) ([]*Table, error) {
	tables := make([]*Table, len(specs))
	errs := make([]error, len(specs))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	if opts.Observer != nil {
		opts.Observer.Begin(len(specs), workers)
		defer opts.Observer.End()
	}

	// Each spec gets a result slot and a done signal; workers fill slots
	// in whatever order they finish, while this goroutine prints slots
	// strictly in suite order, streaming output as the frontier advances.
	// runAttempt isolates a panic or a hang to its spec, so a worker
	// always comes back to fill the slot and pick up the next job.
	done := make([]chan struct{}, len(specs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				var err error
				tables[i], err = runAttempt(specs[i], worker, opts)
				if err != nil {
					errs[i] = fmt.Errorf("experiments: %s failed: %w", specs[i].ID, err)
				}
				close(done[i])
			}
		}(n)
	}
	go func() {
		// Longest-processing-time-first: handing the long poles out
		// before the sub-millisecond specs minimizes makespan under the
		// bounded pool. Output order is unchanged — the printer below
		// still streams strictly in suite order.
		for _, i := range dispatchOrder(specs) {
			jobs <- i
		}
		close(jobs)
	}()

	// After the first write error printing stops, but the remaining
	// specs still run, so failures and metrics stay complete.
	var werr error
	for i := range specs {
		<-done[i]
		if tables[i] == nil || werr != nil {
			continue
		}
		if err := tables[i].Fprint(w); err != nil {
			werr = fmt.Errorf("experiments: writing %s table: %w", specs[i].ID, err)
		}
	}
	wg.Wait()

	if opts.Observer != nil && opts.Summary != nil {
		if err := summaryTable(specs, opts.Observer.Registry()).Fprint(opts.Summary); err != nil {
			werr = errors.Join(werr, fmt.Errorf("experiments: writing summary table: %w", err))
		}
	}
	return tables, errors.Join(errors.Join(errs...), werr)
}

// dispatchOrder returns spec indices sorted by descending Cost hint —
// longest-processing-time-first. The sort is stable, so specs with equal
// (or zero) Cost keep suite order.
func dispatchOrder(specs []Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return specs[order[a]].Cost > specs[order[b]].Cost
	})
	return order
}

// runAttempt executes spec s on a fresh goroutine and decides its
// outcome, the one place the runner does: the spec's result, or a
// *TimeoutError once the watchdog deadline passes with no result.
// Spawning lets a hung spec be abandoned — the goroutine stays parked,
// the worker moves on — and confines a panic to the spec. The spawned
// goroutine runs the spec inside SpecObs.Run, so kernel attribution
// follows it; the outcome is published once, here, with SpecObs.Finish.
// Observed and unobserved attempts take the same path: without an
// observer the SpecObs is nil and neither call observes anything. On
// failure the table is nil.
func runAttempt(s Spec, worker int, opts Options) (*Table, error) {
	type result struct {
		t   *Table
		err error
	}
	so := opts.Observer.Start(s.ID, s.Title, worker)
	resCh := make(chan result, 1)
	go func() {
		var r result
		so.Run(func() { r.t, r.err = runShielded(s, opts.Quick) })
		resCh <- r
	}()

	var deadline <-chan time.Time
	if opts.SpecTimeout > 0 {
		tm := time.NewTimer(opts.SpecTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	var r result
	timedOut := false
	select {
	case r = <-resCh:
	case <-deadline:
		// A result that landed as the timer fired is the outcome.
		// Otherwise the spec is abandoned; its goroutine stays parked.
		select {
		case r = <-resCh:
		default:
			timedOut = true
			r.err = &TimeoutError{ID: s.ID, Timeout: opts.SpecTimeout, Stacks: allStacks()}
		}
	}
	so.Finish(r.err, timedOut)
	return r.t, r.err
}

// runShielded calls s.Run with a panic shield: a panic becomes a
// *PanicError carrying the stack, a nil table with a nil error becomes
// an explicit error, and a malformed table (Validate) fails the spec
// before it can reach — and corrupt or crash — the shared output stream.
func runShielded(s Spec, quick bool) (t *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			t, err = nil, &PanicError{ID: s.ID, Value: r, Stack: string(buf[:runtime.Stack(buf, false)])}
		}
	}()
	t, err = s.Run(quick)
	switch {
	case err != nil:
		t = nil
	case t == nil:
		err = fmt.Errorf("experiments: %s returned neither a table nor an error", s.ID)
	default:
		if verr := t.Validate(); verr != nil {
			t, err = nil, verr
		}
	}
	return t, err
}

// summaryTable builds the suite-summary table from the metrics scope
// the observer published for each spec: host wall clock, events fired,
// peak pending queue depth, same-time fast-path share, and status. A
// timed-out spec renders as TIMEOUT with no event counts — its probes
// were never published, because its abandoned goroutine may still be
// writing to them.
func summaryTable(specs []Spec, reg *obs.Registry) *Table {
	t := &Table{
		ID:      "suite",
		Title:   "observability summary",
		Columns: []string{"id", "wall", "events", "peak pending", "fastpath %", "status"},
	}
	for _, s := range specs {
		sc := reg.Scope(s.ID)
		wall := time.Duration(sc.Gauge("host_seconds") * float64(time.Second)).Round(time.Microsecond).String()
		if sc.Counter("timeouts") > 0 {
			t.AddRow(s.ID, wall, "-", "-", "-", "TIMEOUT")
			continue
		}
		fast := 0.0
		if n := sc.Counter("events_scheduled"); n > 0 {
			fast = 100 * float64(sc.Counter("fastpath_hits")) / float64(n)
		}
		status := "ok"
		if sc.Counter("failures") > 0 {
			status = "FAILED"
		}
		t.AddRow(s.ID, wall, fmt.Sprintf("%d", sc.Counter("events_fired")),
			fmt.Sprintf("%.0f", sc.Gauge("peak_pending")), fmt.Sprintf("%.1f", fast), status)
	}
	return t
}
