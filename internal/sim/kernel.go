// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every timed model in this repository:
// network fabrics, node compute models, the message-passing layer, the
// batch scheduler, and the fault/checkpoint simulator all advance a shared
// virtual clock by scheduling events on a Kernel.
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
// avoids allocating on it. Scheduling pushes a value-type entry onto a
// hand-rolled 4-ary min-heap, event payloads are recycled through a free
// list, cancelled events are deleted lazily with the queue compacted once
// dead entries outnumber live ones, and events scheduled at the current
// virtual time — the dominant case for process handoff — bypass the queue
// entirely via a FIFO. A Proc binds its wake handlers once when Go
// spawns it, so a proc handoff (Wait, Resume, Interrupt) schedules a
// long-lived func value and allocates nothing. A calendar-queue backend
// (bucketed sliding time window, see queue_calendar.go) is available
// through NewOnQueue for benchmarking and differential testing; New
// always builds the heap.
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

// event is the pooled payload of one scheduled event. Queue entries point
// at an event; after it fires or its cancellation is drained, the payload
// returns to the kernel's free list with its generation bumped, which
// invalidates any Handle still referring to it.
type event struct {
	fn    func()
	gen   uint32
	inNow bool // queued on the same-time fast path, not the future queue
}

// Handle identifies a scheduled event and allows cancelling it before it
// fires. The zero Handle is invalid.
type Handle struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// Cancel removes the event from the schedule. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.gen != h.ev.gen || h.ev.fn == nil {
		return false
	}
	h.ev.fn = nil // lazy deletion; the queue entry stays until drained
	k := h.k
	if h.ev.inNow {
		k.nowDead++
	} else {
		k.dead++
	}
	if k.probe != nil {
		k.probe.EventCancelled(k.now, k.Live())
	}
	if !h.ev.inNow && k.dead*2 > k.qsize() && k.qsize() >= compactMin {
		k.compactQueue()
	}
	return true
}

// Pending reports whether the event has not yet fired or been cancelled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.gen == h.ev.gen && h.ev.fn != nil
}

// entry is one queued future event, ordered by (at, seq).
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

func entryLess(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// compactMin is the minimum queue size at which cancellation-driven
// compaction kicks in; below it, lazy draining is cheap enough.
const compactMin = 64

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
	dead  int // cancelled future events still occupying queue slots

	// nowq is the fast path for events scheduled at the current virtual
	// time: they cannot be preceded by anything except earlier-scheduled
	// events also due now, so FIFO order is (at, seq) order and no queue
	// insert is needed. qhead indexes the first undrained entry.
	nowq    []*event
	qhead   int
	nowDead int // cancelled nowq entries not yet drained

	free    []*event // payload free list; bounded by peak pending events
	seq     uint64
	seed    int64 // construction seed, replayed by Reset
	rng     *rand.Rand
	fired   uint64
	stopped bool

	// probe, when non-nil, observes scheduling activity (see probe.go).
	// Every call site is guarded by one nil-check so the unobserved hot
	// path is unchanged.
	probe Probe

	procs int // Proc id allocator (see proc.go)
}

// New returns a Kernel with its clock at zero and randomness seeded from
// seed, on the heap backend. The same seed yields an identical
// simulation on either backend.
func New(seed int64) *Kernel { return NewOnQueue(seed, QueueHeap) }

// NewOnQueue is New with an explicit queue backend.
func NewOnQueue(seed int64, kind QueueKind) *Kernel {
	k := &Kernel{seed: seed, rng: rand.New(rand.NewSource(seed))}
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
// reset — finish or interrupt procs first). The event free list and
// queue storage survive, so the reused kernel also skips its warm-up
// allocations.
func (k *Kernel) Reset() {
	k.drainDead()
	if k.Pending() > 0 {
		panic(fmt.Sprintf("sim: Reset with %d events still pending", k.Pending()))
	}
	k.now = 0
	k.activeQueue().reset()
	k.nowq = k.nowq[:0]
	k.qhead = 0
	k.dead = 0
	k.nowDead = 0
	k.seq = 0
	k.fired = 0
	k.stopped = false
	k.procs = 0
	k.rng = rand.New(rand.NewSource(k.seed))
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many events are scheduled, including lazily
// cancelled entries not yet drained. For queue-depth telemetry use Live,
// which excludes them.
func (k *Kernel) Pending() int { return k.qsize() + len(k.nowq) - k.qhead }

// Live reports how many scheduled events will actually fire: Pending
// minus entries cancelled but not yet drained from either queue.
func (k *Kernel) Live() int { return k.Pending() - k.dead - k.nowDead }

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

// activeQueue returns the live backend behind the eventQueue interface,
// for cold paths and tests.
func (k *Kernel) activeQueue() eventQueue {
	if k.onCal {
		return k.qc
	}
	return k.qh
}

// ---- scheduling ----

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (or at a NaN time) panics: a discrete-event simulation must never
// travel backwards.
func (k *Kernel) At(t Time, fn func()) Handle {
	if !(t >= k.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := k.newEvent(fn)
	k.seq++
	if t == k.now {
		// Same-time fast path. Any queued entry due at t was scheduled
		// before the clock reached t, so it carries a smaller seq than
		// this event and Step drains the queue first; among nowq entries
		// FIFO order equals seq order.
		ev.inNow = true
		k.nowq = append(k.nowq, ev)
	} else {
		k.qpush(entry{at: t, seq: k.seq, ev: ev})
	}
	if k.probe != nil {
		k.probe.EventScheduled(t, k.Live(), ev.inNow)
	}
	return Handle{k: k, ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) Handle { return k.At(k.now+d, fn) }

// Stop makes Run return after the current event completes. Pending events
// remain scheduled; Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.drainDead()
	var ev *event
	if m := k.qmin(); m != nil && (m.at == k.now || k.qhead == len(k.nowq)) {
		e := k.qpop()
		k.now = e.at
		ev = e.ev
	} else if k.qhead < len(k.nowq) {
		ev = k.popNow()
	} else {
		return false
	}
	fn := ev.fn
	k.recycle(ev)
	k.fired++
	if k.probe != nil {
		k.probe.EventFired(k.now, k.Live())
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

// peek returns the timestamp of the next live event.
func (k *Kernel) peek() (Time, bool) {
	k.drainDead()
	if k.qhead < len(k.nowq) {
		return k.now, true
	}
	if m := k.qmin(); m != nil {
		return m.at, true
	}
	return 0, false
}

// NextEventAt returns the time of the next pending event, if any.
func (k *Kernel) NextEventAt() (Time, bool) { return k.peek() }

// ---- event pool ----

func (k *Kernel) newEvent(fn func()) *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.fn = fn
		ev.inNow = false
		return ev
	}
	return &event{fn: fn}
}

// recycle returns a drained payload to the free list. Bumping the
// generation invalidates outstanding Handles before the payload is reused.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	k.free = append(k.free, ev)
}

// ---- queues ----

// drainDead recycles cancelled entries sitting at the front of either
// queue so Step and peek see a live minimum.
func (k *Kernel) drainDead() {
	for k.dead > 0 {
		m := k.qmin()
		if m == nil || m.ev.fn != nil {
			break
		}
		k.recycle(k.qpop().ev)
		k.dead--
	}
	for k.qhead < len(k.nowq) && k.nowq[k.qhead].fn == nil {
		k.recycle(k.popNow())
		k.nowDead--
	}
}

// popNow removes and returns the front of the same-time queue.
func (k *Kernel) popNow() *event {
	ev := k.nowq[k.qhead]
	k.nowq[k.qhead] = nil
	k.qhead++
	if k.qhead == len(k.nowq) {
		k.nowq = k.nowq[:0]
		k.qhead = 0
	}
	return ev
}

// compactQueue removes all cancelled entries from the future queue.
// Triggered from Cancel once dead entries outnumber live ones.
func (k *Kernel) compactQueue() {
	removed := k.activeQueue().compact(k.recycle)
	k.dead = 0
	if k.probe != nil {
		k.probe.HeapCompacted(k.now, removed, k.qsize())
	}
}
