package obs

import (
	"math"
	"math/bits"

	"northstar/internal/sim"
	"northstar/internal/stats"
)

// KernelProbe implements sim.Probe with plain counters: events scheduled
// and fired, same-time-FIFO fast-path hits, peak queue depth, and a
// power-of-two histogram of queue depth sampled at every schedule. Depth
// is the kernel's pending count, every event of which will fire. One
// probe may observe many kernels as long as they are driven one at a
// time from one goroutine — exactly the shape of an experiment that
// builds a kernel per sweep point; the counters then aggregate across
// the experiment's kernels.
//
// Methods never allocate, so the overhead of an attached probe is a
// handful of increments plus a bits.Len bucket index per scheduled event
// (timed by the benchmark as rung.kernel_event_probed). The depth counts
// convert to a stats.Histogram only at PublishTo time.
type KernelProbe struct {
	scheduled   uint64
	fired       uint64
	fastPath    uint64
	peakPending int
	lastVT      sim.Time // latest virtual timestamp seen firing
	// depthCounts[i] counts schedules that saw a queue depth in
	// [2^i, 2^(i+1)); the last slot collects everything deeper.
	depthCounts [depthBuckets + 1]uint64
}

// depthBuckets spans queue depths 1 .. 16M in 24 doubling buckets.
const depthBuckets = 24

// NewKernelProbe returns a zeroed probe.
func NewKernelProbe() *KernelProbe {
	return &KernelProbe{}
}

var _ sim.Probe = (*KernelProbe)(nil)

// EventScheduled implements sim.Probe. pending is the kernel's pending
// event count (sim.Kernel.Pending) at the sample.
func (p *KernelProbe) EventScheduled(at sim.Time, pending int, fastPath bool) {
	p.scheduled++
	if fastPath {
		p.fastPath++
	}
	if pending > p.peakPending {
		p.peakPending = pending
	}
	i := bits.Len64(uint64(pending)) - 1 // pending >= 1 after a schedule
	if i > depthBuckets {
		i = depthBuckets
	}
	p.depthCounts[i]++
}

// EventFired implements sim.Probe.
func (p *KernelProbe) EventFired(now sim.Time, pending int) {
	p.fired++
	if now > p.lastVT {
		p.lastVT = now
	}
}

// Merge folds q's counters into p. The suite observer uses it to fold
// per-task child probes back into a spec's probe when an experiment
// shards work across mc pool goroutines. Every field is a sum or a max,
// which commute, so the merged totals are independent of how tasks were
// scheduled onto goroutines. Not safe for concurrent use — callers
// serialize merges (see SuiteObserver's propagator).
func (p *KernelProbe) Merge(q *KernelProbe) {
	p.scheduled += q.scheduled
	p.fired += q.fired
	p.fastPath += q.fastPath
	if q.peakPending > p.peakPending {
		p.peakPending = q.peakPending
	}
	if q.lastVT > p.lastVT {
		p.lastVT = q.lastVT
	}
	for i := range p.depthCounts {
		p.depthCounts[i] += q.depthCounts[i]
	}
}

// Scheduled returns the number of events scheduled.
func (p *KernelProbe) Scheduled() uint64 { return p.scheduled }

// Fired returns the number of events fired.
func (p *KernelProbe) Fired() uint64 { return p.fired }

// FastPathHits returns how many schedules took the same-time FIFO.
func (p *KernelProbe) FastPathHits() uint64 { return p.fastPath }

// PeakPending returns the deepest queue observed at a schedule.
func (p *KernelProbe) PeakPending() int { return p.peakPending }

// LastVirtualTime returns the latest virtual timestamp seen firing.
func (p *KernelProbe) LastVirtualTime() sim.Time { return p.lastVT }

// DepthHistogram renders the per-schedule queue-depth counts as a
// log-bucket histogram whose 24 doubling buckets line up one-to-one with
// the probe's power-of-two counters (each count lands at its bucket's
// geometric midpoint).
func (p *KernelProbe) DepthHistogram() *stats.Histogram {
	h := stats.NewLogHistogram(1, 1<<depthBuckets, depthBuckets)
	for i, n := range p.depthCounts {
		if n == 0 {
			continue
		}
		// sqrt(2)*2^i is the geometric midpoint of [2^i, 2^(i+1)); for
		// the catch-all slot it lands beyond hi, i.e. in overflow.
		h.AddN(math.Sqrt2*math.Pow(2, float64(i)), int(n))
	}
	return h
}

// PublishTo writes the probe's totals into scope s using stable metric
// names (events_scheduled, events_fired and fastpath_hits counters;
// peak_pending and virtual_seconds gauges; queue_depth histogram).
func (p *KernelProbe) PublishTo(s *Scope) {
	s.Add("events_scheduled", int64(p.scheduled))
	s.Add("events_fired", int64(p.fired))
	s.Add("fastpath_hits", int64(p.fastPath))
	s.Max("peak_pending", float64(p.peakPending))
	s.Max("virtual_seconds", p.lastVT.Seconds())
	s.PutHistogram("queue_depth", p.DepthHistogram())
}
