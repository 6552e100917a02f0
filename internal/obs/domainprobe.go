package obs

import (
	"math"

	"northstar/internal/fault"
	"northstar/internal/mgmt"
	"northstar/internal/network"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

// DomainProbe aggregates model-level telemetry: it implements
// network.Probe, fault.Probe, and mgmt.Probe at once, so one probe per
// experiment observes the simulated cluster — traffic and link
// occupancy per fabric kind, the failures, checkpoints and restarts of
// fault estimates, and monitoring heartbeats and detection latencies —
// the way KernelProbe observes the harness.
//
// Like KernelProbe, methods never allocate (the latency histograms
// bucket by float64 exponent, no math.Log on the hot path) and the
// probe is written from one goroutine at a time; the suite observer
// forks children across mc pool goroutines and folds them back with
// Merge, which only adds integers, so merged totals do not depend on
// merge order.
type DomainProbe struct {
	net      [network.NumFabricKinds]netKindStats
	failures uint64
	checkpts uint64
	restarts uint64
	mgmt     [2]monitorStats
}

// netKindStats accumulates one fabric kind's traffic.
type netKindStats struct {
	fabrics   uint64
	links     int64
	msgs      uint64
	pkts      uint64
	bytesIn   uint64
	delivered uint64
	bytesOut  uint64
	fastPkts  uint64
	busyPS    int64 // link-busy time in whole picoseconds
	latency   latencyHist
}

// monitorStats accumulates one aggregation shape's monitoring activity
// (index 0 = flat, 1 = tree).
type monitorStats struct {
	heartbeats uint64
	detections latencyHist
}

// latencyHist is an allocation-free log-bucket histogram over positive
// seconds: bucket i counts values in [2^(i+latMinExp), 2^(i+1+latMinExp)),
// indexed straight off the float64 exponent bits — no math.Log per
// observation, which keeps an attached probe inside cmd/bench's 10%
// fabric-overhead guard. The range spans ~1 ns to ~9 h; out-of-range
// values clamp into the edge buckets.
type latencyHist struct {
	counts [latBuckets]uint64
	n      uint64
}

const (
	latMinExp  = -30 // 2^-30 s ≈ 0.93 ns
	latBuckets = 45  // up to 2^15 s ≈ 9.1 h
)

func (h *latencyHist) add(seconds float64) {
	h.n++
	if !(seconds > 0) { // zero, negative, NaN: clamp to the first bucket
		h.counts[0]++
		return
	}
	i := int(math.Float64bits(seconds)>>52&0x7ff) - 1023 - latMinExp
	if i < 0 {
		i = 0
	}
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.counts[i]++
}

func (h *latencyHist) merge(q *latencyHist) {
	h.n += q.n
	for i := range h.counts {
		h.counts[i] += q.counts[i]
	}
}

// histogram renders the exponent counts as a stats.Histogram whose 45
// doubling buckets line up one-to-one with the probe's counters, each
// count landing at its bucket's geometric midpoint (same scheme as
// KernelProbe.DepthHistogram).
func (h *latencyHist) histogram() *stats.Histogram {
	out := stats.NewLogHistogram(math.Pow(2, latMinExp), math.Pow(2, latMinExp+latBuckets), latBuckets)
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		out.AddN(math.Sqrt2*math.Pow(2, float64(latMinExp+i)), int(n))
	}
	return out
}

// NewDomainProbe returns a zeroed probe.
func NewDomainProbe() *DomainProbe {
	return &DomainProbe{}
}

var (
	_ network.Probe = (*DomainProbe)(nil)
	_ fault.Probe   = (*DomainProbe)(nil)
	_ mgmt.Probe    = (*DomainProbe)(nil)
)

// ---- network.Probe ----

// FabricBuilt implements network.Probe.
func (p *DomainProbe) FabricBuilt(kind network.FabricKind, links int) {
	p.net[kind].fabrics++
	p.net[kind].links += int64(links)
}

// MessageInjected implements network.Probe.
func (p *DomainProbe) MessageInjected(kind network.FabricKind, bytes, packets int64) {
	st := &p.net[kind]
	st.msgs++
	st.pkts += uint64(packets)
	st.bytesIn += uint64(bytes)
}

// MessageDelivered implements network.Probe.
func (p *DomainProbe) MessageDelivered(kind network.FabricKind, bytes int64, latency sim.Time) {
	st := &p.net[kind]
	st.delivered++
	st.bytesOut += uint64(bytes)
	st.latency.add(latency.Seconds())
}

// LinkBusy implements network.Probe. Each report is rounded once to
// whole picoseconds, so the busy total is an integer sum: exact, and the
// same in any merge order. An int64 holds about 106 days of
// picoseconds.
func (p *DomainProbe) LinkBusy(kind network.FabricKind, busy sim.Time) {
	p.net[kind].busyPS += int64(math.Round(busy.Seconds() * 1e12))
}

// FastPath implements network.Probe.
func (p *DomainProbe) FastPath(kind network.FabricKind, packets int64) {
	p.net[kind].fastPkts += uint64(packets)
}

// ---- fault.Probe ----

// Estimated implements fault.Probe.
func (p *DomainProbe) Estimated(failures, checkpoints, restarts int64) {
	p.failures += uint64(failures)
	p.checkpts += uint64(checkpoints)
	p.restarts += uint64(restarts)
}

// ---- mgmt.Probe ----

func monitorIndex(tree bool) int {
	if tree {
		return 1
	}
	return 0
}

// HeartbeatSent implements mgmt.Probe.
func (p *DomainProbe) HeartbeatSent(tree bool) {
	p.mgmt[monitorIndex(tree)].heartbeats++
}

// DetectionMeasured implements mgmt.Probe.
func (p *DomainProbe) DetectionMeasured(tree bool, latency sim.Time) {
	p.mgmt[monitorIndex(tree)].detections.add(latency.Seconds())
}

// ---- aggregation ----

// Merge folds q into p. Every field is an integer sum, so the merged
// totals are independent of how work landed on pool goroutines and of
// the order merges happen in. Not safe for concurrent use — the suite
// observer serializes merges.
func (p *DomainProbe) Merge(q *DomainProbe) {
	for k := range p.net {
		a, b := &p.net[k], &q.net[k]
		a.fabrics += b.fabrics
		a.links += b.links
		a.msgs += b.msgs
		a.pkts += b.pkts
		a.bytesIn += b.bytesIn
		a.delivered += b.delivered
		a.bytesOut += b.bytesOut
		a.fastPkts += b.fastPkts
		a.busyPS += b.busyPS
		a.latency.merge(&b.latency)
	}
	p.failures += q.failures
	p.checkpts += q.checkpts
	p.restarts += q.restarts
	for i := range p.mgmt {
		p.mgmt[i].heartbeats += q.mgmt[i].heartbeats
		p.mgmt[i].detections.merge(&q.mgmt[i].detections)
	}
}

// Failures returns the number of failure events observed.
func (p *DomainProbe) Failures() uint64 { return p.failures }

// Checkpoints returns the number of committed checkpoints observed.
func (p *DomainProbe) Checkpoints() uint64 { return p.checkpts }

// Heartbeats returns the heartbeats observed for the given shape.
func (p *DomainProbe) Heartbeats(tree bool) uint64 {
	return p.mgmt[monitorIndex(tree)].heartbeats
}

// Messages returns the messages injected into fabrics of the given kind.
func (p *DomainProbe) Messages(kind network.FabricKind) uint64 { return p.net[kind].msgs }

// Empty reports whether the probe observed nothing — no fabric, fault,
// or monitoring activity. The observer skips publishing empty probes so
// purely analytic experiments add no domain sections to the snapshot.
func (p *DomainProbe) Empty() bool {
	for k := range p.net {
		if p.net[k].fabrics != 0 || p.net[k].msgs != 0 {
			return false
		}
	}
	if p.failures+p.checkpts+p.restarts != 0 {
		return false
	}
	for i := range p.mgmt {
		if p.mgmt[i].heartbeats != 0 || p.mgmt[i].detections.n != 0 {
			return false
		}
	}
	return true
}

// PublishTo writes the probe's totals as domain sub-scopes of s:
// network/<kind> (traffic counters, link_busy_seconds, utilization
// gauge, message_latency_seconds histogram), fault (event counters),
// and mgmt/{flat,tree} (heartbeats_sent, detection_latency_seconds).
// virtualSeconds is the simulated span of the one run the probe
// observed; utilization is accumulated link-busy time over links x
// virtualSeconds. A caller whose probe summed several runs passes 0,
// and the gauge is omitted: busy time of many runs over one run's span
// measures nothing.
func (p *DomainProbe) PublishTo(s *Scope, virtualSeconds float64) {
	for k := range p.net {
		st := &p.net[k]
		if st.fabrics == 0 && st.msgs == 0 {
			continue
		}
		d := s.Domain("network").Domain(network.FabricKind(k).String())
		d.Add("fabrics_built", int64(st.fabrics))
		d.Add("links", st.links)
		d.Add("messages_injected", int64(st.msgs))
		d.Add("packets_injected", int64(st.pkts))
		d.Add("bytes_injected", int64(st.bytesIn))
		d.Add("messages_delivered", int64(st.delivered))
		d.Add("bytes_delivered", int64(st.bytesOut))
		if st.fastPkts > 0 {
			d.Add("fastpath_packets", int64(st.fastPkts))
		}
		busy := float64(st.busyPS) / 1e12
		d.Set("link_busy_seconds", busy)
		if st.links > 0 && virtualSeconds > 0 {
			d.Set("utilization", busy/(float64(st.links)*virtualSeconds))
		}
		if st.latency.n > 0 {
			d.PutHistogram("message_latency_seconds", st.latency.histogram())
		}
	}
	if p.failures+p.checkpts+p.restarts > 0 {
		d := s.Domain("fault")
		d.Add("failures", int64(p.failures))
		d.Add("checkpoints", int64(p.checkpts))
		d.Add("restarts", int64(p.restarts))
	}
	for i := range p.mgmt {
		m := &p.mgmt[i]
		if m.heartbeats == 0 && m.detections.n == 0 {
			continue
		}
		name := "flat"
		if i == 1 {
			name = "tree"
		}
		d := s.Domain("mgmt").Domain(name)
		d.Add("heartbeats_sent", int64(m.heartbeats))
		if m.detections.n > 0 {
			d.PutHistogram("detection_latency_seconds", m.detections.histogram())
		}
	}
}
