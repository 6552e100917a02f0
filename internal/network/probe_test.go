package network

import (
	"fmt"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// kindRec accumulates one kind's probe events.
type kindRec struct {
	builds    int
	links     int
	msgs      int64
	pkts      int64
	bytesIn   int64
	delivered int64
	bytesOut  int64
	latencies []sim.Time
	busy      sim.Time
	fast      int64
}

// recProbe is a recording Probe for tests.
type recProbe struct {
	k [NumFabricKinds]kindRec
}

func (r *recProbe) FabricBuilt(kind FabricKind, links int) {
	r.k[kind].builds++
	r.k[kind].links += links
}

func (r *recProbe) MessageInjected(kind FabricKind, bytes, packets int64) {
	r.k[kind].msgs++
	r.k[kind].pkts += packets
	r.k[kind].bytesIn += bytes
}

func (r *recProbe) MessageDelivered(kind FabricKind, bytes int64, latency sim.Time) {
	r.k[kind].delivered++
	r.k[kind].bytesOut += bytes
	r.k[kind].latencies = append(r.k[kind].latencies, latency)
}

func (r *recProbe) LinkBusy(kind FabricKind, busy sim.Time) { r.k[kind].busy += busy }

func (r *recProbe) FastPath(kind FabricKind, packets int64) { r.k[kind].fast += packets }

// kernelOnly is a sim.Probe that observes the kernel only, like a plain
// obs.KernelProbe: fabrics built on its kernel hold no probe.
type kernelOnly struct{}

func (kernelOnly) EventScheduled(sim.Time, int, bool) {}
func (kernelOnly) EventFired(sim.Time, int)           {}

// kernelRec is a kernel probe that also records fabric events, the way
// the suite observer's probe set does: fabrics built on its kernel
// report to it.
type kernelRec struct {
	kernelOnly
	recProbe
}

// near compares sim.Times with a relative tolerance: probe latencies
// are computed as timestamp differences, so they can differ from the
// closed-form expressions by float rounding.
func near(a, b sim.Time) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := float64(a)
	if m < 0 {
		m = -m
	}
	return d <= 1e-9*m+1e-18
}

func TestFabricKindString(t *testing.T) {
	want := map[FabricKind]string{
		KindLogGP:        "loggp",
		KindPacket:       "packet",
		KindCircuit:      "circuit",
		KindWormhole:     "wormhole",
		KindHierarchical: "hierarchical",
		FabricKind(99):   "unknown",
	}
	for kind, name := range want {
		if got := kind.String(); got != name {
			t.Errorf("FabricKind(%d).String() = %q, want %q", kind, got, name)
		}
	}
}

func TestLogGPProbe(t *testing.T) {
	k := sim.New(1)
	f := NewLogGP(k, Myrinet2000(), 4)
	rec := &recProbe{}
	f.SetProbe(rec)
	st := &rec.k[KindLogGP]
	if st.builds != 1 || st.links != 4 {
		t.Fatalf("FabricBuilt recorded builds=%d links=%d, want 1 and 4", st.builds, st.links)
	}

	const bytes = 10_000
	f.Send(0, 1, bytes, nil, nil)
	k.Run()

	if st.msgs != 1 || st.pkts != 1 || st.bytesIn != bytes {
		t.Errorf("injected msgs=%d pkts=%d bytes=%d, want 1/1/%d", st.msgs, st.pkts, st.bytesIn, bytes)
	}
	if st.delivered != 1 || st.bytesOut != bytes {
		t.Errorf("delivered=%d bytes=%d, want 1/%d", st.delivered, st.bytesOut, bytes)
	}
	// Uncontended send from time zero: end-to-end latency is the
	// closed-form message time, and busy time is the NIC occupancy.
	if got, want := st.latencies[0], f.MessageTime(bytes); !near(got, want) {
		t.Errorf("latency = %v, want MessageTime %v", got, want)
	}
	occ := f.Preset().Gap
	if bt := sim.Time(bytes) * f.Preset().ByteTime; bt > occ {
		occ = bt
	}
	if st.busy != occ {
		t.Errorf("busy = %v, want occupancy %v", st.busy, occ)
	}
}

func TestCircuitProbe(t *testing.T) {
	k := sim.New(1)
	p := OpticalCircuit()
	c := NewCircuit(k, p, 4)
	rec := &recProbe{}
	c.SetProbe(rec)
	st := &rec.k[KindCircuit]
	if st.builds != 1 || st.links != 4 {
		t.Fatalf("FabricBuilt recorded builds=%d links=%d, want 1 and 4", st.builds, st.links)
	}

	const bytes = 1 << 20
	c.Send(0, 1, bytes, nil, nil)
	k.Run()

	if st.msgs != 1 || st.delivered != 1 {
		t.Fatalf("msgs=%d delivered=%d, want 1/1", st.msgs, st.delivered)
	}
	tx := sim.Time(bytes) * p.ByteTime
	if tx < p.Gap {
		tx = p.Gap
	}
	// First send to a fresh destination pays the circuit setup, which
	// holds the lightpath: busy = setup + transmission.
	if want := p.CircuitSetup + tx; !near(st.busy, want) {
		t.Errorf("busy = %v, want setup+tx = %v", st.busy, want)
	}
	if want := p.Overhead + p.CircuitSetup + tx + p.Latency + p.Overhead; !near(st.latencies[0], want) {
		t.Errorf("latency = %v, want %v", st.latencies[0], want)
	}

	// Repeat send on the standing circuit: no setup in the busy time.
	st.busy = 0
	c.Send(0, 1, bytes, nil, nil)
	k.Run()
	if !near(st.busy, tx) {
		t.Errorf("repeat-send busy = %v, want tx only %v", st.busy, tx)
	}
}

func TestPacketProbe(t *testing.T) {
	k := sim.New(1)
	p := Myrinet2000()
	g := topology.Torus2D(4, 4)
	f := NewPacketNet(k, p, g)
	rec := &recProbe{}
	f.SetProbe(rec)
	st := &rec.k[KindPacket]
	if st.builds != 1 || st.links != 2*g.Edges() {
		t.Fatalf("FabricBuilt recorded builds=%d links=%d, want 1 and %d", st.builds, st.links, 2*g.Edges())
	}

	bytes := int64(p.MTU)*3 + 100 // 4 packets
	f.Send(0, 5, bytes, nil, nil)
	k.Run()

	if st.msgs != 1 || st.pkts != 4 || st.bytesIn != bytes {
		t.Errorf("injected msgs=%d pkts=%d bytes=%d, want 1/4/%d", st.msgs, st.pkts, st.bytesIn, bytes)
	}
	if st.delivered != 1 || st.bytesOut != bytes {
		t.Errorf("delivered=%d bytes=%d, want 1/%d", st.delivered, st.bytesOut, bytes)
	}
	if st.busy <= 0 {
		t.Errorf("busy = %v, want > 0", st.busy)
	}
	if st.latencies[0] <= 0 {
		t.Errorf("latency = %v, want > 0", st.latencies[0])
	}
	if st.fast != 0 {
		t.Errorf("fast-path packets = %d without BatchBulk, want 0", st.fast)
	}
}

func TestPacketProbeFastPath(t *testing.T) {
	k := sim.New(1)
	p := Myrinet2000()
	f := NewPacketNet(k, p, topology.Torus2D(4, 4))
	f.BatchBulk = true
	rec := &recProbe{}
	f.SetProbe(rec)

	bytes := int64(p.MTU) * 64
	f.Send(0, 5, bytes, nil, nil)
	k.Run()

	st := &rec.k[KindPacket]
	if st.fast == 0 {
		t.Fatalf("BatchBulk bulk transfer recorded no fast-path packets")
	}
	if st.pkts != 64 {
		t.Errorf("packets injected = %d, want 64", st.pkts)
	}
}

func TestWormholeProbe(t *testing.T) {
	k := sim.New(1)
	p := Myrinet2000()
	g := topology.FatTree(4, 2) // 16 endpoints
	f := NewWormholeNet(k, p, g, 0)
	rec := &recProbe{}
	f.SetProbe(rec)
	st := &rec.k[KindWormhole]
	if st.builds != 1 || st.links != 2*g.Edges() {
		t.Fatalf("FabricBuilt recorded builds=%d links=%d, want 1 and %d", st.builds, st.links, 2*g.Edges())
	}

	bytes := int64(p.MTU)*2 + 1 // 3 packets
	done := false
	f.Send(0, 9, bytes, nil, func() { done = true })
	k.Run()

	if !done {
		t.Fatal("message never delivered")
	}
	if st.msgs != 1 || st.pkts != 3 || st.bytesIn != bytes {
		t.Errorf("injected msgs=%d pkts=%d bytes=%d, want 1/3/%d", st.msgs, st.pkts, st.bytesIn, bytes)
	}
	if st.delivered != 1 || st.bytesOut != bytes {
		t.Errorf("delivered=%d bytes=%d, want 1/%d", st.delivered, st.bytesOut, bytes)
	}
	if st.busy <= 0 || st.latencies[0] <= 0 {
		t.Errorf("busy=%v latency=%v, want both > 0", st.busy, st.latencies[0])
	}
}

func TestHierarchicalProbe(t *testing.T) {
	rec := &kernelRec{}
	k := sim.New(1)
	k.SetProbe(rec)
	inter := NewLogGP(k, Myrinet2000(), 2)
	intra := NewLogGP(k, SharedMemory(1e9), 4)
	h, err := NewHierarchical(intra, inter, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := &rec.k[KindHierarchical]; st.builds != 1 || st.links != 0 {
		t.Fatalf("hierarchical FabricBuilt builds=%d links=%d, want 1 and 0", st.builds, st.links)
	}

	h.Send(0, 1, 1000, nil, nil) // same node: intra
	h.Send(0, 2, 1000, nil, nil) // cross node: inter
	k.Run()

	if st := &rec.k[KindHierarchical]; st.msgs != 2 {
		t.Errorf("hierarchical injected %d messages, want 2 (it routes, children deliver)", st.msgs)
	}
	// The children (both LogGP here) carry the traffic and report their
	// own injection and delivery.
	if st := &rec.k[KindLogGP]; st.msgs != 2 || st.delivered != 2 {
		t.Errorf("child loggp msgs=%d delivered=%d, want 2/2", st.msgs, st.delivered)
	}
	if st := &rec.k[KindHierarchical]; st.delivered != 0 {
		t.Errorf("hierarchical delivered=%d, want 0", st.delivered)
	}
}

// TestFabricsTakeTheirKernelsProbe covers the attachment every fabric
// constructor makes: a kernel probe that also implements Probe observes
// each fabric built on its kernel, and a kernel without one leaves its
// fabrics unobserved.
func TestFabricsTakeTheirKernelsProbe(t *testing.T) {
	build := func(k *sim.Kernel) []Fabric {
		return []Fabric{
			NewLogGP(k, Myrinet2000(), 3),
			NewCircuit(k, OpticalCircuit(), 3),
			NewPacketNet(k, Myrinet2000(), topology.Crossbar(4)),
			NewWormholeNet(k, Myrinet2000(), topology.Crossbar(4), 0),
		}
	}
	rec := &kernelRec{}
	k := sim.New(1)
	k.SetProbe(rec)
	for _, f := range build(k) {
		f.Send(0, 1, 100, nil, nil)
	}
	k.Run()
	for _, kind := range []FabricKind{KindLogGP, KindCircuit, KindPacket, KindWormhole} {
		if st := rec.k[kind]; st.builds != 1 || st.msgs != 1 || st.delivered != 1 {
			t.Errorf("%s: builds=%d msgs=%d delivered=%d, want 1/1/1", kind, st.builds, st.msgs, st.delivered)
		}
	}

	probeOf := func(f Fabric) Probe {
		switch f := f.(type) {
		case *LogGP:
			return f.probe
		case *Circuit:
			return f.probe
		case *PacketNet:
			return f.probe
		case *WormholeNet:
			return f.probe
		}
		panic(fmt.Sprintf("unexpected fabric %T", f))
	}
	bare := sim.New(1)
	kernelOnlyK := sim.New(1)
	kernelOnlyK.SetProbe(kernelOnly{})
	for _, k := range []*sim.Kernel{bare, kernelOnlyK} {
		for _, f := range build(k) {
			if p := probeOf(f); p != nil {
				t.Errorf("%s on a kernel probed by %T holds probe %T, want nil", f.Name(), k.Probe(), p)
			}
		}
	}
}

// TestProbeNeverPerturbs pins the core contract: attaching a probe
// changes no delivery time. The same packet workload runs bare and
// probed; the delivery timestamps must be bit-identical.
func TestProbeNeverPerturbs(t *testing.T) {
	run := func(probe Probe) []sim.Time {
		k := sim.New(1)
		f := NewPacketNet(k, Myrinet2000(), topology.Torus2D(4, 4))
		f.BatchBulk = true
		if probe != nil {
			f.SetProbe(probe)
		}
		var times []sim.Time
		for i := 0; i < 8; i++ {
			src, dst := i%16, (i*5+3)%16
			if src == dst {
				dst = (dst + 1) % 16
			}
			f.Send(src, dst, int64(1000*(i+1)), nil, func() {
				times = append(times, k.Now())
			})
		}
		k.Run()
		return times
	}
	bare := run(nil)
	probed := run(&recProbe{})
	if len(bare) != len(probed) {
		t.Fatalf("delivery count differs: %d vs %d", len(bare), len(probed))
	}
	for i := range bare {
		if bare[i] != probed[i] {
			t.Fatalf("delivery %d: %v bare vs %v probed — probe perturbed the simulation", i, bare[i], probed[i])
		}
	}
}
