package sim

import (
	"sort"
	"testing"
)

// opsResult is one backend's observable outcome of an op stream: the
// payload fire order plus the kernel's final accounting. The differential
// harness requires it to be identical on every queue backend.
type opsResult struct {
	fired   []int
	count   uint64
	pending int
	final   Time
}

// runKernelOps drives one kernel — pinned to the given queue backend —
// through the fuzzed op stream and checks it against a trivially correct
// reference model: a flat slice of (time, scheduling-index) pairs sorted
// stably. The kernel promises events fire in (time, seq) order with FIFO
// ties, every scheduled event fires exactly once, Pending counts exactly
// the events not yet fired, and the clock never runs backwards; any queue
// bug that breaks one of those shows up as an order or bookkeeping diff.
//
// The op stream executes *inside* kernel events (a driver chain), so
// scheduling happens both before the clock reaches an event's time (queue
// path) and exactly at it (nowq fast path), like real simulations.
//
// Ops (op = byte%8, arg = next byte):
//
//	0, 1:  schedule one payload arg microseconds out (near cluster)
//	2:     schedule an 8-payload monotone burst at +arg..+arg+7 µs
//	       (density — drives calendar bucket growth)
//	3:     schedule one payload arg*16 milliseconds out (far tail —
//	       bimodal with 0-2, drives calendar overflow and promotion)
//	4-6:   schedule one payload at the current time, on the same-time
//	       FIFO ahead of the driver's next step; arg is unused
//	7:     advance the driver clock arg microseconds
func runKernelOps(t *testing.T, data []byte, kind QueueKind) opsResult {
	t.Helper()
	k := NewOnQueue(1, kind)

	type payload struct {
		id    int
		at    Time
		fired bool
	}
	var model []*payload
	var fired []int
	lastNow := k.Now()
	driving := true // the driver has a step pending or running

	checkPending := func(want int) {
		if got := k.Pending(); got != want {
			t.Fatalf("[%v] Pending() = %d, model says %d", kind, got, want)
		}
	}
	schedule := func(d Time) {
		p := &payload{id: len(model), at: k.Now() + d}
		k.After(d, func() {
			if p.fired {
				t.Fatalf("[%v] payload %d fired twice", kind, p.id)
			}
			// Pending: every other unfired payload, and the driver's
			// next step while the op stream lasts.
			want := len(model) - len(fired) - 1
			if driving {
				want++
			}
			checkPending(want)
			p.fired = true
			fired = append(fired, p.id)
		})
		model = append(model, p)
	}

	i := 0
	var step func()
	step = func() {
		if k.Now() < lastNow {
			t.Fatalf("[%v] clock ran backwards: %v after %v", kind, k.Now(), lastNow)
		}
		lastNow = k.Now()
		// The driver's own event has fired, so every pending event is
		// a payload.
		checkPending(len(model) - len(fired))
		if i+1 >= len(data) {
			driving = false
			return
		}
		op, arg := data[i]%8, int(data[i+1])
		i += 2
		next := Time(0) // next driver step: same-time unless op 7
		switch op {
		case 0, 1: // near: arg microseconds out
			schedule(Time(arg) * Microsecond)
		case 2: // dense monotone burst
			for j := 0; j < 8; j++ {
				schedule(Time(arg+j) * Microsecond)
			}
		case 3: // far tail: arg*16 ms out (calendar overflow territory)
			schedule(Time(arg) * 16 * Millisecond)
		case 4, 5, 6: // now: the same-time FIFO
			schedule(0)
		case 7: // advance the driver clock
			next = Time(arg) * Microsecond
		}
		k.After(next, step)
	}
	k.After(0, step)
	final := k.Run()

	// Every payload fired once, in (time, scheduling order).
	want := append([]*payload(nil), model...)
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	if len(fired) != len(want) {
		t.Fatalf("[%v] %d payloads fired, model expects %d", kind, len(fired), len(want))
	}
	for j, p := range want {
		if fired[j] != p.id {
			t.Fatalf("[%v] firing position %d: payload %d, model expects %d (at=%v)", kind, j, fired[j], p.id, p.at)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("[%v] %d events still pending after Run drained everything", kind, k.Pending())
	}
	return opsResult{fired: fired, count: k.Fired(), pending: k.Pending(), final: final}
}

// FuzzKernelOps is the differential backend fuzz target: every op stream
// runs on the heap backend and on the calendar backend, each checked
// against the reference model — and then the two observable outcomes are
// required to be bit-identical. The ordering contract is a total order on
// (at, seq), so nothing about the backend may leak into fire order,
// Fired/Pending accounting, or the final clock.
func FuzzKernelOps(f *testing.F) {
	// Seeds: pure near scheduling, then streams that mix near, burst and
	// same-time schedules (ops 4-6) with time advances between them.
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 5, 1, 3, 4, 0, 0, 2, 4, 1, 4, 2})
	f.Add([]byte{0, 10, 7, 4, 0, 0, 7, 9, 2, 200, 4, 0, 6, 1})
	f.Add([]byte{1, 1, 1, 1, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5})
	// Far-tail stream: 24 overflow-range events with a near cluster in
	// between — exercises the calendar's overflow heap, the drain-time
	// rebuild, and bulk promotion into a reshaped window.
	far := []byte{}
	for j := 0; j < 24; j++ {
		far = append(far, 3, byte(7+j*11))
	}
	far = append(far, 0, 2, 0, 2, 7, 50)
	f.Add(far)
	// Density stream: ~70 monotone bursts (≈560 resident events) with
	// two same-time schedules — exercises the calendar's density-driven
	// bucket resize, then drains through a far advance.
	dense := []byte{}
	for j := 0; j < 70; j++ {
		dense = append(dense, 2, byte(j*3))
	}
	dense = append(dense, 4, 17, 4, 130, 7, 255, 7, 255)
	f.Add(dense)
	// Bimodal near/far interleave, each pair followed by a same-time
	// schedule.
	bimodal := []byte{}
	for j := 0; j < 16; j++ {
		bimodal = append(bimodal, 0, byte(j), 3, byte(200-j*5), 4, byte(j*7))
	}
	f.Add(bimodal)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // bound per-input work
		}
		heap := runKernelOps(t, data, QueueHeap)
		cal := runKernelOps(t, data, QueueCalendar)
		if len(cal.fired) != len(heap.fired) {
			t.Fatalf("calendar fired %d payloads, heap fired %d", len(cal.fired), len(heap.fired))
		}
		for j := range heap.fired {
			if cal.fired[j] != heap.fired[j] {
				t.Fatalf("calendar diverged from heap at firing %d: payload %d vs %d",
					j, cal.fired[j], heap.fired[j])
			}
		}
		if cal.count != heap.count || cal.pending != heap.pending || cal.final != heap.final {
			t.Fatalf("calendar accounting diverged from heap: fired %d/%d, pending %d/%d, final %v/%v",
				cal.count, heap.count, cal.pending, heap.pending, cal.final, heap.final)
		}
	})
}
