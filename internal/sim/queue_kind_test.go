package sim

import "testing"

func TestQueueKindString(t *testing.T) {
	cases := []struct {
		kind QueueKind
		name string
	}{
		{QueueHeap, "heap"},
		{QueueCalendar, "calendar"},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.name {
			t.Errorf("QueueKind(%d).String() = %q, want %q", c.kind, got, c.name)
		}
	}
}

// TestQueueBackendKind checks that NewOnQueue builds exactly the backend
// it is asked for, and nothing else.
func TestQueueBackendKind(t *testing.T) {
	if k := NewOnQueue(1, QueueHeap); k.onCal || k.qh == nil || k.qc != nil {
		t.Errorf("NewOnQueue(heap): onCal=%v heap=%v calendar=%v", k.onCal, k.qh != nil, k.qc != nil)
	}
	if k := NewOnQueue(1, QueueCalendar); !k.onCal || k.qc == nil || k.qh != nil {
		t.Errorf("NewOnQueue(calendar): onCal=%v heap=%v calendar=%v", k.onCal, k.qh != nil, k.qc != nil)
	}
}

// TestCalendarCompact drives cancellation-triggered compaction on the
// calendar backend: once dead entries outnumber live ones past
// compactMin, Cancel must sweep them out of the bucket wheel and the
// overflow heap without disturbing the fire order of survivors.
func TestCalendarCompact(t *testing.T) {
	const n = 200
	k := NewOnQueue(7, QueueCalendar)
	fired := make([]int, 0, n)
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = k.At(Time(i+1)*Microsecond, func() { fired = append(fired, i) })
	}
	// Fire the first event so the wheel has folded entries in from the
	// overflow heap before the cancellation storm hits.
	k.Step()
	cancelled := 0
	for i := 1; i < n; i += 2 {
		if handles[i].Cancel() {
			cancelled++
		}
	}
	// Second cancel of the same handle is a no-op.
	if handles[1].Cancel() {
		t.Fatal("double Cancel reported pending")
	}
	if k.qsize() >= compactMin && k.dead*2 > k.qsize() {
		t.Fatalf("compaction did not trigger: dead=%d qsize=%d", k.dead, k.qsize())
	}
	k.Run()
	want := 1 + (n - 1 - cancelled)
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for j := 1; j < len(fired); j++ {
		if fired[j] <= fired[j-1] {
			t.Fatalf("fire order broken at %d: %d after %d", j, fired[j], fired[j-1])
		}
	}
}

func TestNextEventAt(t *testing.T) {
	k := New(1)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("NextEventAt reported an event on an empty kernel")
	}
	k.At(5*Millisecond, func() {})
	at, ok := k.NextEventAt()
	if !ok || at != 5*Millisecond {
		t.Fatalf("NextEventAt = %v, %v, want 5ms, true", at, ok)
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
}

func TestClampInt(t *testing.T) {
	cases := []struct{ n, lo, hi, want int }{
		{-3, 1, 8, 1},
		{5, 1, 8, 5},
		{99, 1, 8, 8},
	}
	for _, c := range cases {
		if got := clampInt(c.n, c.lo, c.hi); got != c.want {
			t.Errorf("clampInt(%d, %d, %d) = %d, want %d", c.n, c.lo, c.hi, got, c.want)
		}
	}
}

func TestProcID(t *testing.T) {
	k := New(1)
	var a, b int
	k.Go(func(p *Proc) { a = p.ID() })
	k.Go(func(p *Proc) { b = p.ID() })
	k.Run()
	if a == b {
		t.Fatalf("two procs share ID %d", a)
	}
}
