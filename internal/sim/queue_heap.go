package sim

// heapQueue is the kernel's store of future events, keyed by (at, seq),
// and what New builds: a hand-rolled 4-ary min-heap (shallower than a
// binary heap, and sibling keys share cache lines), sifted with moves
// instead of swaps. Entries may arrive in any time order (>= the
// kernel's now). The calendar backend (queue_calendar.go) has the same
// methods and orders entries by the same comparator, so a kernel fires
// bit-identical event sequences on either; the differential fuzz
// harness in fuzz_test.go holds them to that.
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

// reset empties the queue, keeping its capacity for reuse.
func (q *heapQueue) reset() { q.h = q.h[:0] }
