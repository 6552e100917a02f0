package sim

// eventQueue is the kernel's store of future events, keyed by (at, seq).
// Two backends implement it: heapQueue (a 4-ary min-heap, what New
// builds) and calendarQueue (a bucketed calendar over a sliding time
// window, built only by NewOnQueue). Both order entries by exactly the
// same (at, seq) comparator, so a kernel produces bit-identical event
// sequences on either backend — the differential fuzz harness in
// fuzz_test.go holds them to that.
//
// The kernel dispatches on concrete types for the hot path (push/pop/min
// stay inlineable); the interface exists for the cold paths (compaction,
// reset) and for tests that drive both backends symmetrically.
type eventQueue interface {
	// push inserts e. Entries may arrive in any time order (>= the
	// kernel's now).
	push(e entry)
	// pop removes and returns the minimum entry by (at, seq). Only valid
	// when size() > 0.
	pop() entry
	// min points at the current minimum entry, or nil when empty. The
	// pointer is valid only until the next mutation.
	min() *entry
	// size reports resident entries, including lazily-cancelled ones.
	size() int
	// compact removes entries whose event was cancelled (fn == nil),
	// passing each dropped payload to drop, and reports how many were
	// removed.
	compact(drop func(*event)) int
	// reset empties the queue, retaining capacity for reuse.
	reset()
}

// heapQueue is the classic backend: a hand-rolled 4-ary min-heap
// (shallower than a binary heap, and sibling keys share cache lines),
// sifted with moves instead of swaps.
type heapQueue struct {
	h []entry
}

func (q *heapQueue) size() int { return len(q.h) }

func (q *heapQueue) min() *entry {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// push inserts e, sifting up with moves instead of swaps.
func (q *heapQueue) push(e entry) {
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the minimum entry.
func (q *heapQueue) pop() entry {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	q.h = h[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places e at index i, moving smaller children up.
func (q *heapQueue) siftDown(i int, e entry) {
	h := q.h
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// compact removes all cancelled entries and re-heapifies. Triggered from
// Cancel once dead entries outnumber live ones, it keeps
// cancellation-heavy workloads (timeouts that almost always get cancelled)
// from growing the heap without bound.
func (q *heapQueue) compact(drop func(*event)) int {
	h := q.h
	live := h[:0]
	for _, e := range h {
		if e.ev.fn == nil {
			drop(e.ev)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(h); i++ {
		h[i] = entry{}
	}
	q.h = live
	if n := len(live); n > 1 {
		for i := (n - 2) >> 2; i >= 0; i-- {
			q.siftDown(i, q.h[i])
		}
	}
	return len(h) - len(live)
}

func (q *heapQueue) reset() { q.h = q.h[:0] }
