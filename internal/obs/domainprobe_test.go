package obs

import (
	"math"
	"testing"

	"northstar/internal/fault"
	"northstar/internal/mc"
	"northstar/internal/mgmt"
	"northstar/internal/network"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

func TestLatencyHistBucketing(t *testing.T) {
	var h latencyHist
	h.add(1e-9)            // bottom of the range: bucket 0 spans [2^-30 s, 2^-29 s)
	h.add(1.0)             // exponent 0 -> bucket 30
	h.add(3600)            // an hour, near the top
	h.add(0)               // clamps to bucket 0
	h.add(-5)              // clamps to bucket 0
	h.add(math.NaN())      // clamps to bucket 0
	h.add(math.Pow(2, 40)) // beyond the range: clamps to the last bucket

	if h.n != 7 {
		t.Fatalf("n = %d, want 7", h.n)
	}
	if h.counts[0] != 4 {
		t.Errorf("bucket 0 = %d, want 4 (1 ns plus the three clamped non-positive values)", h.counts[0])
	}
	if h.counts[30] != 1 {
		t.Errorf("bucket 30 (=[1,2) s) = %d, want 1", h.counts[30])
	}
	if h.counts[latBuckets-1] != 1 {
		t.Errorf("last bucket = %d, want 1 (the out-of-range clamp)", h.counts[latBuckets-1])
	}

	// Rendering keeps the mass and places it in matching buckets.
	sh := h.histogram()
	if sh.Count() != 7 {
		t.Errorf("rendered histogram count = %d, want 7", sh.Count())
	}
	if sh.Underflow() != 0 || sh.Overflow() != 0 {
		t.Errorf("rendered histogram spilled: under=%d over=%d, want 0/0 (buckets align one-to-one)",
			sh.Underflow(), sh.Overflow())
	}
	// The single 1-second observation lands at its bucket's geometric
	// midpoint: the median of a one-second-only histogram is ~sqrt(2).
	var h2 latencyHist
	h2.add(1.0)
	if got := h2.histogram().Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("one-second histogram median = %g, want within [1, 2)", got)
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b latencyHist
	a.add(1.0)
	a.add(2.5)
	b.add(1e-6)
	b.add(2.5)
	a.merge(&b)
	if a.n != 4 {
		t.Fatalf("merged n = %d, want 4", a.n)
	}
	var total uint64
	for _, c := range a.counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("merged bucket mass = %d, want 4", total)
	}
}

func TestDomainProbeMerge(t *testing.T) {
	a, b := NewDomainProbe(), NewDomainProbe()
	a.FabricBuilt(network.KindPacket, 8)
	a.MessageInjected(network.KindPacket, 1000, 2)
	a.Estimated(1, 0, 1)
	a.HeartbeatSent(false)
	b.MessageInjected(network.KindPacket, 500, 1)
	b.MessageDelivered(network.KindPacket, 500, 2*sim.Millisecond)
	b.Estimated(2, 3, 2)
	b.HeartbeatSent(true)
	b.HeartbeatSent(false)

	a.Merge(b)
	if got := a.Messages(network.KindPacket); got != 2 {
		t.Errorf("merged messages = %d, want 2", got)
	}
	if a.Failures() != 3 || a.Checkpoints() != 3 {
		t.Errorf("merged fault counters = %d/%d, want 3/3", a.Failures(), a.Checkpoints())
	}
	if a.Heartbeats(false) != 2 || a.Heartbeats(true) != 1 {
		t.Errorf("merged heartbeats flat=%d tree=%d, want 2/1", a.Heartbeats(false), a.Heartbeats(true))
	}
}

func TestDomainProbeEmpty(t *testing.T) {
	p := NewDomainProbe()
	if !p.Empty() {
		t.Fatal("fresh probe must be Empty")
	}
	p.HeartbeatSent(true)
	if p.Empty() {
		t.Fatal("probe with a heartbeat must not be Empty")
	}
	q := NewDomainProbe()
	q.Estimated(0, 1, 0)
	if q.Empty() {
		t.Fatal("probe with an estimate's checkpoint must not be Empty")
	}
	if NewDomainProbe().Empty() == false {
		t.Fatal("unrelated probe affected")
	}
}

// findDomain returns the named domain section of a scope snapshot.
func findDomain(t *testing.T, ss ScopeSnapshot, name string) ScopeSnapshot {
	t.Helper()
	for _, d := range ss.Domains {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("scope %q has no domain %q (domains: %v)", ss.Name, name, domainNames(ss))
	return ScopeSnapshot{}
}

func domainNames(ss ScopeSnapshot) []string {
	names := make([]string, 0, len(ss.Domains))
	for _, d := range ss.Domains {
		names = append(names, d.Name)
	}
	return names
}

func TestDomainProbePublishTo(t *testing.T) {
	p := NewDomainProbe()
	p.FabricBuilt(network.KindPacket, 4)
	p.MessageInjected(network.KindPacket, 3000, 3)
	p.MessageDelivered(network.KindPacket, 3000, 500*sim.Millisecond)
	p.LinkBusy(network.KindPacket, 2*sim.Second)
	p.FastPath(network.KindPacket, 2)
	p.Estimated(1, 2, 1)
	p.HeartbeatSent(false)
	p.DetectionMeasured(true, 30*sim.Second)

	reg := NewRegistry()
	scope := reg.Scope("EX")
	p.PublishTo(scope, 10.0)
	ss := reg.Snapshot().Scopes[0]

	pk := findDomain(t, findDomain(t, ss, "network"), "packet")
	if pk.Counters["messages_injected"] != 1 || pk.Counters["packets_injected"] != 3 ||
		pk.Counters["bytes_injected"] != 3000 || pk.Counters["fastpath_packets"] != 2 {
		t.Errorf("packet counters wrong: %v", pk.Counters)
	}
	// utilization = busy / (links x virtual) = 2 / (4 x 10).
	if got := pk.Gauges["utilization"]; math.Abs(got-0.05) > 1e-12 {
		t.Errorf("utilization = %g, want 0.05", got)
	}
	lh, ok := pk.Histograms["message_latency_seconds"]
	if !ok || lh.Count != 1 {
		t.Fatalf("message latency histogram missing or wrong: %+v", pk.Histograms)
	}
	if lh.P50 <= 0 {
		t.Errorf("latency p50 = %g, want > 0", lh.P50)
	}

	fd := findDomain(t, ss, "fault")
	if fd.Counters["failures"] != 1 || fd.Counters["checkpoints"] != 2 || fd.Counters["restarts"] != 1 {
		t.Errorf("fault counters wrong: %v", fd.Counters)
	}

	md := findDomain(t, ss, "mgmt")
	if flat := findDomain(t, md, "flat"); flat.Counters["heartbeats_sent"] != 1 {
		t.Errorf("flat heartbeats = %v", flat.Counters)
	}
	if tree := findDomain(t, md, "tree"); tree.Histograms["detection_latency_seconds"].Count != 1 {
		t.Errorf("tree detection histogram = %+v", tree.Histograms)
	}

	// Without a span, as for a probe that summed several runs, the
	// utilization gauge is omitted.
	reg = NewRegistry()
	p.PublishTo(reg.Scope("EX"), 0)
	pk = findDomain(t, findDomain(t, reg.Snapshot().Scopes[0], "network"), "packet")
	if got, ok := pk.Gauges["utilization"]; ok {
		t.Errorf("utilization = %g published without a span", got)
	}
}

// TestObserverDomainPlumbing drives the full attachment path: a suite
// observer binds a spec, the spec builds model objects through their
// public constructors, and the registry ends up with the domain
// sections — without the spec ever naming a probe.
func TestObserverDomainPlumbing(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace()
	o := NewSuiteObserver(reg, tr, nil)
	o.Begin(1, 1)
	so := o.StartAttempt("EX", "domain plumbing", 0)

	// Network: a fabric built on an observed kernel gets its probe.
	k := sim.New(1)
	f := network.NewLogGP(k, network.Myrinet2000(), 2)
	f.Send(0, 1, 4096, nil, nil)
	k.Run()

	// Fault: a first-failure estimate on an inline pool.
	pool := mc.NewPool(0)
	sys := fault.System{Nodes: 16, Lifetime: stats.Exponential{Rate: 1.0 / 3600}}
	sys.FirstFailureMean(pool, 5, 11)
	pool.Close()

	// Mgmt: one detection simulation.
	if _, err := (mgmt.Monitor{Nodes: 8}).SimulateDetection(3); err != nil {
		t.Fatal(err)
	}

	if so.Domain().Messages(network.KindLogGP) != 1 {
		t.Fatalf("domain probe saw %d loggp messages, want 1", so.Domain().Messages(network.KindLogGP))
	}
	so.Done(nil)
	o.End()

	var ex ScopeSnapshot
	for _, sc := range reg.Snapshot().Scopes {
		if sc.Name == "EX" {
			ex = sc
		}
	}
	if ex.Name != "EX" {
		t.Fatal("scope EX missing from registry")
	}
	lg := findDomain(t, findDomain(t, ex, "network"), "loggp")
	if lg.Counters["messages_delivered"] != 1 || lg.Counters["bytes_delivered"] != 4096 {
		t.Errorf("loggp delivery counters wrong: %v", lg.Counters)
	}
	if fd := findDomain(t, ex, "fault"); fd.Counters["failures"] != 5 {
		t.Errorf("fault failures = %v, want 5 (one per replication)", fd.Counters)
	}
	if hb := findDomain(t, findDomain(t, ex, "mgmt"), "flat").Counters["heartbeats_sent"]; hb == 0 {
		t.Error("no heartbeats recorded through the kernel")
	}
	if _, ok := findDomain(t, findDomain(t, ex, "network"), "loggp").Gauges["utilization"]; ok {
		t.Error("the observer published a utilization gauge for a spec")
	}
	// Model telemetry stays in the registry: the trace holds the worker
	// track's name and the spec's span, all on host time.
	if evs := traceEventsOf(t, tr); len(evs) != 2 || evs[0].Phase != "M" || evs[1].Phase != "X" {
		t.Errorf("trace = %+v, want the worker name and one span", evs)
	}

	// After End, the hooks are removed: new model objects see no probe.
	before := so.Domain().Messages(network.KindLogGP)
	k2 := sim.New(1)
	f2 := network.NewLogGP(k2, network.Myrinet2000(), 2)
	f2.Send(0, 1, 64, nil, nil)
	k2.Run()
	if got := so.Domain().Messages(network.KindLogGP); got != before {
		t.Errorf("probe saw traffic after End: %d -> %d", before, got)
	}
}

// TestObserverAnalyticSpecHasNoDomainSections pins the Empty() gate: a
// spec that touches no model package gets no network/fault/mgmt
// sections.
func TestObserverAnalyticSpecHasNoDomainSections(t *testing.T) {
	reg := NewRegistry()
	o := NewSuiteObserver(reg, nil, nil)
	o.Begin(1, 1)
	so := o.StartAttempt("AN", "analytic", 0)
	so.Done(nil)
	o.End()

	var an ScopeSnapshot
	for _, sc := range reg.Snapshot().Scopes {
		if sc.Name == "AN" {
			an = sc
		}
	}
	for _, d := range an.Domains {
		t.Errorf("analytic spec grew a %q domain section", d.Name)
	}
}

func traceEventsOf(t *testing.T, tr *Trace) []TraceEvent {
	t.Helper()
	return decodeTrace(t, tr).TraceEvents
}
