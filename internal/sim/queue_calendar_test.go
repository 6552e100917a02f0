package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// fireOrder schedules the given offsets on a kernel pinned to kind, runs
// it, and returns the scheduling indexes in fire order.
func fireOrder(kind QueueKind, offsets []Time) []int {
	k := NewOnQueue(1, kind)
	order := make([]int, 0, len(offsets))
	for i, d := range offsets {
		i := i
		k.After(d, func() { order = append(order, i) })
	}
	k.Run()
	return order
}

// assertSameOrder requires the calendar backend to fire the given
// schedule in exactly the heap backend's order.
func assertSameOrder(t *testing.T, offsets []Time) {
	t.Helper()
	want := fireOrder(QueueHeap, offsets)
	got := fireOrder(QueueCalendar, offsets)
	if len(got) != len(want) {
		t.Fatalf("calendar fired %d events, heap fired %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("calendar diverged from heap at position %d: event %d vs %d", j, got[j], want[j])
		}
	}
}

// TestCalendarOverflowPromotion schedules a far-flung tail (every entry
// outside any plausible initial window, forcing the overflow heap) and
// checks the rebuild-and-promote path reproduces heap order exactly.
func TestCalendarOverflowPromotion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	offsets := make([]Time, 0, 64)
	for i := 0; i < 64; i++ {
		offsets = append(offsets, Time(rng.Float64()*1e6)*Second)
	}
	// Duplicates exercise the (at, seq) tie-break across the promotion
	// boundary.
	offsets = append(offsets, offsets[3], offsets[17], offsets[3])
	assertSameOrder(t, offsets)

	// White-box: with a far spread the first min() must have rebuilt the
	// wheel around the near cluster, leaving the tail in overflow.
	k := NewOnQueue(1, QueueCalendar)
	for _, d := range offsets {
		k.After(d, func() {})
	}
	k.qc.min()
	if k.qc.resident == 0 {
		t.Fatalf("calendar wheel empty after rebuild: resident=0, overflow=%d", k.qc.over.size())
	}
	if k.qc.resident+k.qc.over.size() != len(offsets) {
		t.Fatalf("calendar lost entries: resident=%d + overflow=%d != %d",
			k.qc.resident, k.qc.over.size(), len(offsets))
	}
	for k.Step() {
	}
}

// TestCalendarDensityResize packs enough same-window events to trip the
// density rebuild (resident > buckets*calGrowFactor) and checks both the
// bucket-count growth and order preservation.
func TestCalendarDensityResize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := calMinBuckets*calGrowFactor + 256 // past the resize trigger
	offsets := make([]Time, 0, n)
	for i := 0; i < n; i++ {
		offsets = append(offsets, Time(rng.Float64())*Second)
	}
	assertSameOrder(t, offsets)

	k := NewOnQueue(1, QueueCalendar)
	for _, d := range offsets {
		k.After(d, func() {})
	}
	k.qc.min() // settle the first rebuild
	if k.qc.nb <= calMinBuckets {
		t.Fatalf("calendar did not resize under density: nb=%d with %d pending", k.qc.nb, k.Pending())
	}
	for k.Step() {
	}
}

// TestCalendarAllSameTime drives the degenerate width=0 cluster (every
// entry at one instant): the rebuild's width fallback must keep the queue
// functional and FIFO.
func TestCalendarAllSameTime(t *testing.T) {
	offsets := make([]Time, 100)
	for i := range offsets {
		offsets[i] = Hour
	}
	assertSameOrder(t, offsets)
}

// TestNewStaysOnHeap pins the kernel decision: New builds a heap kernel,
// and it stays on the heap at the depths the suite reaches (3×1024
// pending events, the E6/E8/X5/X6 range) while firing in (at, seq)
// order — time first, scheduling order among ties.
func TestNewStaysOnHeap(t *testing.T) {
	const n = 3 * 1024
	k := New(1)
	rng := rand.New(rand.NewSource(9))
	ats := make([]Time, n)
	var fired []int
	for i := range ats {
		ats[i] = Time(1+rng.Intn(n/4)) * Microsecond // ~4 ties per instant
		i := i
		k.At(ats[i], func() { fired = append(fired, i) })
	}
	if k.onCal || k.qc != nil || k.qh.size() != n {
		t.Fatalf("New kernel with %d pending: onCal=%v calendar=%v heap size=%d, want heap only",
			n, k.onCal, k.qc != nil, k.qh.size())
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return ats[want[a]] < ats[want[b]] })
	k.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("fire position %d: event %d (at %v), want event %d (at %v)",
				j, fired[j], ats[fired[j]], want[j], ats[want[j]])
		}
	}
}

// TestCalendarResetReplays checks Reset on heap and calendar kernels:
// the second run must replay the first exactly on each backend.
func TestCalendarResetReplays(t *testing.T) {
	for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
		k := NewOnQueue(42, kind)
		run := func() []Time {
			rng := rand.New(rand.NewSource(7))
			var times []Time
			for i := 0; i < 1500; i++ {
				k.After(Time(rng.Float64())*Second, func() { times = append(times, k.Now()) })
			}
			k.Run()
			return times
		}
		first := run()
		k.Reset()
		second := run()
		if len(first) != len(second) {
			t.Fatalf("[%v] replay fired %d events, first run %d", kind, len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("[%v] replay diverged at event %d: %v vs %v", kind, i, second[i], first[i])
			}
		}
	}
}

// TestCalendarZeroAllocSteadyState pins the acceptance claim: a warmed-up
// calendar kernel schedules and fires without allocating — runs, bucket
// array, overflow heap, and rebuild scratch are all reused.
func TestCalendarZeroAllocSteadyState(t *testing.T) {
	k := NewOnQueue(1, QueueCalendar)
	rng := rand.New(rand.NewSource(7))
	n := 0
	const depth = 4096
	var fn func()
	fn = func() {
		if n > 0 {
			n--
			k.After(Time(rng.Float64())*Millisecond, fn)
		}
	}
	warm := func(events int) {
		n = events
		for i := 0; i < depth; i++ {
			k.After(Time(rng.Float64())*Millisecond, fn)
		}
		k.Run()
	}
	// Warm-up: the arena, scratch, overflow heap, and same-time FIFO all
	// ratchet to the workload's high-water mark over the first few runs;
	// steady state is everything after that.
	warm(200_000)
	warm(50_000)
	warm(50_000)
	allocs := testing.AllocsPerRun(5, func() { warm(50_000) })
	if allocs > 0 {
		t.Fatalf("calendar steady state allocates: %.1f allocs per 50k-event run", allocs)
	}
}
