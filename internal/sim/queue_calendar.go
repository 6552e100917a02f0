package sim

// calendarQueue is the dense-schedule backend: a calendar queue (Brown
// 1988) flattened to one sliding window. A power-of-two array of buckets
// covers the window [start, end); each bucket holds one sorted run of
// entries whose due times fall in its width-wide slice, so the global
// minimum is the head of the first non-empty bucket and pops are O(1)
// array reads instead of heap sifts. Everything outside the window — far
// checkpoint/MTBF timers, Forever sentinels, bursts scheduled past the
// horizon — lives in an overflow 4-ary heap and is promoted in bulk when
// the wheel drains and rebuilds around the next cluster of events.
//
// Ordering is exactly the kernel's (at, seq) total order: runs are kept
// sorted by entryLess, and min/pop compare the wheel's head against the
// overflow heap's root with the same comparator, so fire order is
// bit-identical to heapQueue's (the differential fuzz target proves it).
// Nothing relies on the overflow holding only far entries — an in-window
// entry parked there is still popped at the right moment — which is what
// lets push spill instead of allocate (below).
//
// Steady state allocates nothing, by construction: every bucket run is a
// sub-slice of one reusable arena, carved at rebuild with the bucket's
// exact entry count plus calRunSlack headroom. A push whose bucket has
// exhausted its headroom spills to the overflow heap (order-correct, see
// above) rather than growing the run, so no append on the hot path can
// ever reallocate; the arena, overflow heap, bucket array, and rebuild
// scratch all ratchet to the workload's high-water mark and are reused.
type calendarQueue struct {
	buckets [][]entry // sorted runs, ascending by (at, seq); arena-backed
	heads   []int     // per-bucket index of the first unconsumed entry
	nb      int       // len(buckets), power of two
	width   Time      // time span of one bucket
	start   Time      // window start (inclusive)
	end     Time      // window end (exclusive): start + nb*width
	scan    int       // lower bound for the first non-empty bucket

	resident int       // entries in buckets
	over     heapQueue // entries outside [start, end), plus spills
	spilled  int       // in-window entries parked in over since last rebuild
	deferred int       // beyond-window pushes parked in over since last rebuild

	arena   []entry // backing store for all bucket runs, reused
	scratch []entry // rebuild staging, reused
	merged  []entry // merge staging, reused
}

// Calendar shape parameters. targetRun sizes buckets for a handful of
// entries each (short memmoves on out-of-order insert, O(1) appends for
// monotone and same-time streams); runSlack is the per-bucket headroom
// the arena reserves for pushes arriving between rebuilds, and hotRun is
// the run length past which that headroom scales with the run (dense
// same-time clusters get proportional room); the bucket
// count is clamped so the bucket array stays cache-friendly and rebuild
// cost bounded; wheelTarget bounds how many entries one rebuild folds
// into the wheel (past calMaxBuckets*calTargetRun the runs simply grow —
// a 30-entry sorted memmove still beats a cache-missing heap sift at the
// depths where it happens); sampleMin is how many overflow pops shape
// the density estimate before the far-outlier detector arms; rebuildMin
// keeps near-empty kernels on the plain overflow heap, where a wheel
// would be pure overhead.
const (
	calTargetRun   = 4
	calRunSlack    = 8
	calHotRun      = 64
	calMinBuckets  = 64
	calMaxBuckets  = 1 << 15
	calWheelTarget = 1 << 20
	calSampleMin   = 1024
	calRebuildMin  = 16
	calGrowFactor  = 8
)

func (c *calendarQueue) size() int { return c.resident + c.over.size() }

// bucket maps a due time inside [start, end) to its bucket index.
func (c *calendarQueue) bucket(at Time) int {
	b := int((at - c.start) / c.width)
	if b >= c.nb { // float rounding at the window edge, or clamped window
		b = c.nb - 1
	}
	return b
}

// bucketMin points at the wheel's minimum entry, advancing scan past
// emptied buckets. Valid only when resident > 0.
func (c *calendarQueue) bucketMin() *entry {
	for c.heads[c.scan] == len(c.buckets[c.scan]) {
		c.scan++
	}
	return &c.buckets[c.scan][c.heads[c.scan]]
}

func (c *calendarQueue) min() *entry {
	if c.resident == 0 {
		if c.over.size() >= calRebuildMin {
			c.rebuild()
		}
		if c.resident == 0 {
			return c.over.min()
		}
	}
	bm := c.bucketMin()
	if om := c.over.min(); om != nil && entryLess(*om, *bm) {
		return om
	}
	return bm
}

func (c *calendarQueue) pop() entry {
	m := c.min() // also settles which side holds the minimum
	if om := c.over.min(); om == m {
		return c.over.pop()
	}
	b := c.scan
	e := *m
	c.heads[b]++
	c.resident--
	if c.heads[b] == len(c.buckets[b]) {
		c.buckets[b] = c.buckets[b][:0]
		c.heads[b] = 0
	}
	return e
}

func (c *calendarQueue) push(e entry) {
	if e.at < c.start || e.at >= c.end {
		c.over.push(e)
		if e.at >= c.end {
			// Slide: when pushes landing beyond the window rival the
			// resident set, the window is falling behind the schedule —
			// re-shape around what is pending so steady-state pushes go
			// back to O(1) wheel ops. Kernels whose window keeps up (the
			// common case: a few far timers in overflow, everything else
			// in-window) never trip this, so they never pay for a rebuild
			// they don't need.
			c.deferred++
			if c.deferred >= calRebuildMin && c.deferred*4 >= c.resident {
				c.rebuild()
			}
		}
		return
	}
	b := c.bucket(e.at)
	run := c.buckets[b]
	if len(run) == cap(run) {
		// The bucket's arena segment is full. Spill to the overflow heap
		// instead of growing the run off-arena: min() compares both sides
		// with entryLess, so the entry still fires in exactly its (at,
		// seq) slot, and the next rebuild folds it back into the wheel.
		// Rebuild once spills rival the resident set, so a hot bucket
		// cannot degrade the wheel into a de facto heap.
		c.over.push(e)
		c.spilled++
		if c.spilled > c.resident/2+calRebuildMin {
			c.rebuild()
		}
		return
	}
	if n := len(run); n == c.heads[b] || !entryLess(e, run[n-1]) {
		// Monotone within the bucket — the dominant case for same-time
		// bursts and forward-marching schedules — is a plain append.
		c.buckets[b] = append(run, e)
	} else {
		lo, hi := c.heads[b], len(run)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryLess(run[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		run = append(run, entry{})
		copy(run[lo+1:], run[lo:])
		run[lo] = e
		c.buckets[b] = run
	}
	c.resident++
	if b < c.scan {
		c.scan = b
	}
	if c.resident > c.nb*calGrowFactor && c.nb < calMaxBuckets {
		c.rebuild()
	}
}

// rebuild re-shapes the window around the pending set: it gathers the
// wheel's entries (already in sorted order), samples the overflow heap to
// estimate event density, picks a bucket width targeting calTargetRun
// entries per bucket, promotes every overflow entry that falls inside the
// new window, and redistributes the lot into arena-carved runs. Called
// when the wheel drains (slide forward), when density outgrows the bucket
// count (resize), and when spills rival the resident set (re-fold).
func (c *calendarQueue) rebuild() {
	// Gather: wheel entries in time order, then enough overflow pops to
	// see the near cluster. Both end up merged in c.scratch, sorted.
	sc := c.scratch[:0]
	for b := c.scan; b < c.nb; b++ {
		sc = append(sc, c.buckets[b][c.heads[b]:]...)
		c.buckets[b] = c.buckets[b][:0]
		c.heads[b] = 0
	}
	c.resident = 0
	c.scan = 0
	c.spilled = 0
	c.deferred = 0
	wheel := len(sc)
	var lo, hi Time
	if wheel > 0 {
		lo, hi = sc[0].at, sc[wheel-1].at
	}
	sample := 0
	for c.over.size() > 0 && len(sc) < calWheelTarget {
		om := c.over.min()
		if len(sc) == 0 {
			lo, hi = om.at, om.at
		}
		if om.at > hi {
			// Far-outlier detector: folding an entry that more than doubles
			// the sampled span would stretch the bucket width until the near
			// cluster crams into a handful of buckets (think thousands of
			// packet events now plus one MTBF timer hours out). Once the
			// density estimate is credible, leave such tails in overflow for
			// a later rebuild. Gradual growth — uniform or bursty schedules
			// whose span extends entry by entry — never trips this, so dense
			// sets fold wholesale into the wheel.
			if len(sc) >= calSampleMin && hi > lo && om.at-lo > 2*(hi-lo) {
				break
			}
			hi = om.at
		}
		if om.at < lo {
			lo = om.at
		}
		sc = append(sc, c.over.pop())
		sample++
	}
	if wheel > 0 && sample > 0 {
		c.merged = mergeSortedRuns(sc, wheel, c.merged)
	}
	c.scratch = sc
	if len(sc) == 0 {
		return
	}

	// Shape: width targets calTargetRun entries per bucket at the
	// observed density; the bucket count scales with how much is pending.
	// The window is then widened to cover at least twice the sampled span:
	// the second half is headroom for events scheduled while the first
	// half drains, so a steady-state schedule keeps landing in-window
	// (O(1) wheel ops) instead of round-tripping through the overflow
	// heap. The slide rebuild in pop re-centers before the headroom runs
	// out.
	k := len(sc)
	span := sc[k-1].at - sc[0].at
	width := (span / Time(k)) * calTargetRun
	nb := ceilPow2(clampInt(k/calTargetRun, calMinBuckets, calMaxBuckets))
	if w2 := 2 * span / Time(nb); width < w2 {
		width = w2
	}
	if !(width > 0) {
		width = 1 // all-same-time cluster: any positive width works
	}
	if cap(c.buckets) < nb {
		c.buckets = make([][]entry, nb)
		c.heads = make([]int, nb)
	} else {
		// Re-slicing (not reallocating) keeps the arrays' capacity across
		// shrink-then-grow cycles.
		c.buckets = c.buckets[:nb]
		c.heads = c.heads[:nb]
	}
	c.nb = nb
	c.width = width
	c.start = sc[0].at
	c.end = c.start + Time(nb)*width
	if !(c.end > c.start) { // width overflowed to +Inf: one giant window
		c.end = Forever
	}

	// Promote the remaining overflow entries now inside the window,
	// keeping scratch one sorted run (pops arrive ascending).
	promoted := len(sc)
	for {
		om := c.over.min()
		if om == nil || om.at >= c.end {
			break
		}
		sc = append(sc, c.over.pop())
	}
	if len(sc) > promoted {
		c.merged = mergeSortedRuns(sc, promoted, c.merged)
	}
	c.scratch = sc

	// Distribute: count each bucket's entries (heads doubles as the
	// counter — it must end zeroed anyway), carve its run from the arena
	// with calRunSlack headroom, then fill by ascending append. Nothing
	// here or on the subsequent push path can grow a run beyond its
	// carve, so the arena is the only backing store runs ever use.
	// Headroom is calRunSlack, plus half the current count for hot
	// buckets (calHotRun and up — thousands of same-time collective
	// events landing on one timestamp): those get room to absorb their
	// share of future pushes in place instead of spilling them all
	// through the overflow heap after eight appends. Ordinary buckets
	// keep the lean fixed slack so runs stay cache-tight.
	for _, e := range sc {
		c.heads[c.bucket(e.at)]++
	}
	need := len(sc) + len(sc)/2 + nb*calRunSlack
	if cap(c.arena) < need {
		c.arena = make([]entry, 0, need)
	}
	pos := 0
	for b := 0; b < nb; b++ {
		seg := c.heads[b] + calRunSlack
		if c.heads[b] >= calHotRun {
			seg += c.heads[b] / 2
		}
		c.buckets[b] = c.arena[pos : pos : pos+seg]
		pos += seg
		c.heads[b] = 0
	}
	for _, e := range sc {
		b := c.bucket(e.at)
		c.buckets[b] = append(c.buckets[b], e)
	}
	c.resident = len(sc)
	c.scratch = sc[:0]
}

func (c *calendarQueue) reset() {
	for b := range c.buckets {
		c.buckets[b] = c.buckets[b][:0]
		c.heads[b] = 0
	}
	c.resident = 0
	c.scan = 0
	c.spilled = 0
	c.deferred = 0
	c.start, c.end, c.width = 0, 0, 0
	c.over.reset()
	c.scratch = c.scratch[:0]
}

// mergeSortedRuns merges s[:mid] and s[mid:], each sorted by entryLess,
// in place, staging the left run in tmp (grown as needed and returned for
// reuse).
func mergeSortedRuns(s []entry, mid int, tmp []entry) []entry {
	tmp = append(tmp[:0], s[:mid]...)
	i, j, o := 0, mid, 0
	for i < len(tmp) && j < len(s) {
		if entryLess(s[j], tmp[i]) {
			s[o] = s[j]
			j++
		} else {
			s[o] = tmp[i]
			i++
		}
		o++
	}
	copy(s[o:], tmp[i:])
	return tmp[:0]
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func clampInt(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}
