package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := New(1)
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.At(at, func() { got = append(got, k.Now()) })
	}
	end := k.Run()
	if end != 5 {
		t.Fatalf("final time = %v, want 5", end)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestKernelTieBreakIsFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestKernelAfterAccumulates(t *testing.T) {
	k := New(1)
	var end Time
	k.After(1, func() {
		k.After(2, func() {
			end = k.Now()
		})
	})
	k.Run()
	if end != 3 {
		t.Fatalf("nested After ended at %v, want 3", end)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := New(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestKernelStopAndContinue(t *testing.T) {
	k := New(1)
	var got []Time
	k.At(1, func() { got = append(got, 1); k.Stop() })
	k.At(2, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 1 {
		t.Fatalf("after Stop, got %v", got)
	}
	k.Run()
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("after resume, got %v", got)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := New(1)
	var got []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.RunUntil(2.5)
	if len(got) != 2 {
		t.Fatalf("RunUntil(2.5) ran %v", got)
	}
	if k.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", k.Now())
	}
	k.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events lost: %v", got)
	}
}

func TestKernelRunUntilAdvancesIdleClock(t *testing.T) {
	k := New(1)
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("Now = %v, want 100", k.Now())
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New(seed)
		var trace []Time
		var spawn func()
		n := 0
		spawn = func() {
			trace = append(trace, k.Now())
			n++
			if n < 200 {
				k.After(Time(k.Rand().Float64()), spawn)
				if k.Rand().Intn(2) == 0 {
					k.After(Time(k.Rand().Float64()*2), func() { trace = append(trace, k.Now()) })
				}
			}
		}
		k.After(0, spawn)
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative offsets, the kernel fires events
// in nondecreasing time order and fires all of them.
func TestKernelOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		k := New(1)
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			k.At(at, func() { fired = append(fired, at) })
		}
		k.Run()
		if len(fired) != len(offsets) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(offsets))
		for i, off := range offsets {
			want[i] = Time(off)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{5 * Nanosecond, "5ns"},
		{12 * Microsecond, "12µs"},
		{3 * Millisecond, "3ms"},
		{1.5, "1.5s"},
		{300, "5min"},
		{2 * Hour, "2h"},
		{3 * Day, "3d"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

// Events scheduled at the current time (the After(0) fast path) must fire
// after heap events already due at that time, in FIFO order, and before
// anything later.
func TestKernelSameTimeFastPathOrdering(t *testing.T) {
	k := New(1)
	var got []string
	k.At(10, func() {
		got = append(got, "A")
		// Scheduled while now==10: fast path. Must run after B (heap
		// entry at 10 with smaller seq) but before D (t=11).
		k.At(10, func() { got = append(got, "C1") })
		k.After(0, func() { got = append(got, "C2") })
	})
	k.At(10, func() { got = append(got, "B") })
	k.At(11, func() { got = append(got, "D") })
	k.Run()
	want := "A B C1 C2 D"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("order = %q, want %q", s, want)
	}
}

// RunUntil must honour fast-path events queued at the boundary time.
func TestKernelRunUntilWithFastPath(t *testing.T) {
	k := New(1)
	var got []Time
	k.At(2, func() {
		k.After(0, func() { got = append(got, k.Now()) })
	})
	k.At(3, func() { got = append(got, k.Now()) })
	k.RunUntil(2)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("RunUntil(2) fired %v, want the nested same-time event", got)
	}
	k.Run()
	if len(got) != 2 || got[1] != 3 {
		t.Fatalf("remaining events lost: %v", got)
	}
}

// BenchmarkKernelSameTimeEvents exercises the After(0) fast path that
// dominates proc handoff (Go, Resume).
func BenchmarkKernelSameTimeEvents(b *testing.B) {
	k := New(1)
	n := 0
	var fn func()
	fn = func() {
		if n < b.N {
			n++
			k.After(0, fn)
		}
	}
	b.ReportAllocs()
	k.After(0, fn)
	k.Run()
}
