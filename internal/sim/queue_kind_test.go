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
