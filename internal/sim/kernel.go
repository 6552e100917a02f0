// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every timed model in this repository:
// network fabrics, node compute models, the message-passing layer, the
// batch scheduler, and the fault/checkpoint simulator all advance a shared
// virtual clock by scheduling events on a Kernel.
//
// The kernel only schedules and fires. At and After queue a handler;
// Step, Run and RunUntil fire handlers in order; a Proc is a coroutine
// that blocks in Wait or Suspend and is woken by its timer or by
// ResumeAfter, which wakes it a given delay after the call (Resume is
// ResumeAfter(0)). A scheduled event always fires: there is no
// cancellation.
//
// Determinism: events that fire at the same virtual time are executed in
// the order they were scheduled (a monotonic sequence number breaks ties),
// and all randomness flows from a caller-supplied seed. Two runs with the
// same seed produce bit-identical event orderings, which keeps every
// experiment in this repository reproducible. The ordering contract is a
// total order on (at, seq) — it holds identically on every queue backend,
// so the choice of backend never changes simulation output.
//
// Performance: the event queue is the hot path of every simulation, so it
// avoids allocating on it. Scheduling pushes a value-type entry holding
// the handler onto a hand-rolled 4-ary min-heap, and events scheduled at
// the current virtual time — the dominant case for process handoff —
// bypass the heap entirely via a FIFO of handlers. A Proc binds its wake
// handler once when Go spawns it, so a proc handoff (Wait, ResumeAfter)
// schedules a long-lived func value and allocates nothing. A
// calendar-queue backend (bucketed sliding time window, see
// queue_calendar.go) is available through NewOnQueue for benchmarking
// and differential testing; New always builds the heap.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a point in virtual time, in seconds. Virtual time is unrelated
// to wall-clock time: a simulated microsecond costs whatever the host
// needs to execute the event handlers, no more.
type Time float64

// Common durations, as Time deltas.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
	Minute      Time = 60
	Hour        Time = 3600
	Day         Time = 86400
	Year        Time = 365.25 * 86400
)

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxFloat64

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time with an auto-selected unit.
func (t Time) String() string {
	switch abs := math.Abs(float64(t)); {
	case t == Forever:
		return "forever"
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", float64(t)*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµs", float64(t)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3gms", float64(t)*1e3)
	case abs < 120:
		return fmt.Sprintf("%.4gs", float64(t))
	case abs < 2*3600:
		return fmt.Sprintf("%.4gmin", float64(t)/60)
	case abs < 2*86400:
		return fmt.Sprintf("%.4gh", float64(t)/3600)
	default:
		return fmt.Sprintf("%.4gd", float64(t)/86400)
	}
}

// entry is one queued future event, ordered by (at, seq).
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

func entryLess(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// QueueKind selects the event-queue backend of a Kernel.
type QueueKind uint8

const (
	// QueueHeap is the 4-ary min-heap that New builds.
	QueueHeap QueueKind = iota
	// QueueCalendar is the calendar queue, reachable only through
	// NewOnQueue.
	QueueCalendar
)

// String names the kind: "heap" or "calendar".
func (q QueueKind) String() string {
	if q == QueueCalendar {
		return "calendar"
	}
	return "heap"
}

// Kernel is a discrete-event simulation engine. A Kernel is not safe for
// concurrent use; all interaction must happen from the goroutine driving
// Run (event handlers run on that goroutine, and Proc coroutines run only
// while the kernel is parked waiting for them — see proc.go).
type Kernel struct {
	now Time

	// Future-event queue: exactly one backend, fixed at construction.
	// onCal selects between qh and qc (the other stays nil). Dispatching
	// on the concrete types keeps the dominant heap path inlineable.
	qh    *heapQueue
	qc    *calendarQueue
	onCal bool

	// nowq is the fast path for events scheduled at the current virtual
	// time: they cannot be preceded by anything except earlier-scheduled
	// events also due now, so FIFO order is (at, seq) order and no queue
	// insert is needed. qhead indexes the first unfired handler.
	nowq  []func()
	qhead int

	seq     uint64
	seed    int64      // construction seed, replayed by Reset
	rng     *rand.Rand // built from seed by the first Rand call
	fired   uint64
	stopped bool

	// probe, when non-nil, observes scheduling activity (see probe.go).
	// Every call site is guarded by one nil-check so the unobserved hot
	// path is unchanged.
	probe Probe
}

// New returns a Kernel with its clock at zero and randomness seeded from
// seed, on the heap backend. The same seed yields an identical
// simulation on either backend.
func New(seed int64) *Kernel { return NewOnQueue(seed, QueueHeap) }

// NewOnQueue is New with an explicit queue backend.
func NewOnQueue(seed int64, kind QueueKind) *Kernel {
	k := &Kernel{seed: seed}
	if kind == QueueCalendar {
		k.qc, k.onCal = &calendarQueue{}, true
	} else {
		k.qh = &heapQueue{}
	}
	if h := kernelHook.Load(); h != nil {
		(*h)(k)
	}
	return k
}

// Reset returns the kernel to the state New(seed) produced: clock at
// zero, empty schedule, randomness re-seeded, Fired back to zero. It
// lets a built simulation (a machine with its fabric) be reused across
// runs instead of reconstructed. Reset panics if events are still
// pending: it is for reusing a kernel after a drained Run, not for
// aborting one (a Proc parked in Suspend would likewise outlive the
// reset — finish procs first). The queues keep their storage, so the
// reused kernel also skips its warm-up allocations.
func (k *Kernel) Reset() {
	if n := k.Pending(); n > 0 {
		panic(fmt.Sprintf("sim: Reset with %d events still pending", n))
	}
	k.now = 0
	if k.onCal {
		k.qc.reset()
	} else {
		k.qh.reset()
	}
	k.nowq = k.nowq[:0]
	k.qhead = 0
	k.seq = 0
	k.fired = 0
	k.stopped = false
	k.rng = nil
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source, seeded from
// the construction seed. It is built on the first call: most models
// draw nothing, and a source costs about 5 KB.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// Fired reports how many events have executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many events are scheduled and not yet fired, on
// the future queue and the same-time FIFO together. Every one of them
// will fire.
func (k *Kernel) Pending() int { return k.qsize() + len(k.nowq) - k.qhead }

// ---- queue dispatch ----

func (k *Kernel) qsize() int {
	if k.onCal {
		return k.qc.size()
	}
	return k.qh.size()
}

func (k *Kernel) qmin() *entry {
	if k.onCal {
		return k.qc.min()
	}
	return k.qh.min()
}

func (k *Kernel) qpop() entry {
	if k.onCal {
		return k.qc.pop()
	}
	return k.qh.pop()
}

func (k *Kernel) qpush(e entry) {
	if k.onCal {
		k.qc.push(e)
		return
	}
	k.qh.push(e)
}

// ---- scheduling ----

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (or at a NaN time) panics: a discrete-event simulation must never
// travel backwards.
func (k *Kernel) At(t Time, fn func()) {
	if !(t >= k.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	k.seq++
	fast := t == k.now
	if fast {
		// Same-time fast path. Any queued entry due at t was scheduled
		// before the clock reached t, so it carries a smaller seq than
		// this event and Step drains the queue first; among nowq entries
		// FIFO order equals seq order.
		k.nowq = append(k.nowq, fn)
	} else {
		k.qpush(entry{at: t, seq: k.seq, fn: fn})
	}
	if k.probe != nil {
		k.probe.EventScheduled(t, k.Pending(), fast)
	}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the current event completes. Pending events
// remain scheduled; Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	var fn func()
	if m := k.qmin(); m != nil && (m.at == k.now || k.qhead == len(k.nowq)) {
		e := k.qpop()
		k.now = e.at
		fn = e.fn
	} else if k.qhead < len(k.nowq) {
		fn = k.popNow()
	} else {
		return false
	}
	k.fired++
	if k.probe != nil {
		k.probe.EventFired(k.now, k.Pending())
	}
	fn()
	return true
}

// Run executes events until none remain or Stop is called. It returns the
// final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (if the simulation had not already passed it) and returns.
// Events scheduled after t remain pending.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopped = false
	for !k.stopped {
		next, ok := k.peek()
		if !ok || next > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// peek returns the timestamp of the next pending event.
func (k *Kernel) peek() (Time, bool) {
	if k.qhead < len(k.nowq) {
		return k.now, true
	}
	if m := k.qmin(); m != nil {
		return m.at, true
	}
	return 0, false
}

// popNow removes and returns the front of the same-time FIFO.
func (k *Kernel) popNow() func() {
	fn := k.nowq[k.qhead]
	k.nowq[k.qhead] = nil
	k.qhead++
	if k.qhead == len(k.nowq) {
		k.nowq = k.nowq[:0]
		k.qhead = 0
	}
	return fn
}
