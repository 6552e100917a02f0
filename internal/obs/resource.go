package obs

import "runtime"

// ResourceScope samples the Go runtime's resource counters around a
// region of work — each experiment attempt, in the suite observer — so
// the registry and summary table show what a spec cost the host beyond
// wall clock: bytes allocated, heap high-water, goroutine high-water.
//
// Sampling happens only at Start and Stop (two ReadMemStats calls, no
// forced GC), so the numbers are cheap but approximate: AllocBytes is
// exact (TotalAlloc is monotonic and GC-independent), while the
// high-water gauges are lower bounds — a peak between the two samples
// goes unseen. A measurement that needs settled heap numbers must force
// a GC around its reads instead.
type ResourceScope struct {
	startTotalAlloc uint64
	startHeap       uint64
	startGoros      int
	stopped         bool
	allocBytes      uint64
	heapHigh        uint64
	goroHigh        int
}

// StartResourceScope samples the current runtime state and returns a
// scope to Stop when the region ends.
func StartResourceScope() *ResourceScope {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ResourceScope{
		startTotalAlloc: ms.TotalAlloc,
		startHeap:       ms.HeapAlloc,
		startGoros:      runtime.NumGoroutine(),
	}
}

// Stop takes the closing sample. Idempotent: later calls keep the first
// stop's numbers.
func (r *ResourceScope) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - r.startTotalAlloc
	r.heapHigh = r.startHeap
	if ms.HeapAlloc > r.heapHigh {
		r.heapHigh = ms.HeapAlloc
	}
	r.goroHigh = r.startGoros
	if n := runtime.NumGoroutine(); n > r.goroHigh {
		r.goroHigh = n
	}
}

// AllocBytes returns the bytes allocated during the region (exact,
// from the monotonic TotalAlloc counter). Valid after Stop.
func (r *ResourceScope) AllocBytes() uint64 { return r.allocBytes }

// HeapHighBytes returns the larger of the heap sizes sampled at Start
// and Stop — a lower bound on the region's true peak. Valid after Stop.
func (r *ResourceScope) HeapHighBytes() uint64 { return r.heapHigh }

// GoroutineHigh returns the larger of the goroutine counts sampled at
// Start and Stop. Valid after Stop.
func (r *ResourceScope) GoroutineHigh() int { return r.goroHigh }

// PublishTo writes the samples into scope s as a "resources" domain
// (alloc_bytes counter; heap_high_bytes and goroutines_high gauges).
func (r *ResourceScope) PublishTo(s *Scope) {
	d := s.Domain("resources")
	d.Add("alloc_bytes", int64(r.allocBytes))
	d.Max("heap_high_bytes", float64(r.heapHigh))
	d.Max("goroutines_high", float64(r.goroHigh))
}
