package network

import (
	"math"
	"testing"
	"testing/quick"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

func TestPresetsValid(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
	}
	for _, breakIt := range []func(p *Preset){
		func(p *Preset) { p.Name = "" },
		func(p *Preset) { p.Latency = -1 },
		func(p *Preset) { p.ByteTime = 0 },
		func(p *Preset) { p.MTU = 0 },
	} {
		p := GigabitEthernet()
		breakIt(&p)
		if p.Validate() == nil {
			t.Errorf("invalid preset %+v accepted", p)
		}
	}
}

func TestPresetOrdering(t *testing.T) {
	// The 2002 pecking order the literature reports: latency improves and
	// bandwidth grows from Fast Ethernet to the specialized fabrics.
	ps := Presets()
	fe, gige, myri, qs, ib := ps[0], ps[1], ps[2], ps[3], ps[4]
	if !(fe.Latency > gige.Latency && gige.Latency > myri.Latency && myri.Latency > qs.Latency) {
		t.Error("latency ordering broken")
	}
	if !(fe.Bandwidth() < gige.Bandwidth() && gige.Bandwidth() < myri.Bandwidth() &&
		myri.Bandwidth() < qs.Bandwidth() && qs.Bandwidth() < ib.Bandwidth()) {
		t.Error("bandwidth ordering broken")
	}
}

// TestPresetByName: every built-in preset's name finds an equal preset
// without allocating, and an unknown name is an error naming it.
func TestPresetByName(t *testing.T) {
	for _, want := range Presets() {
		got, err := PresetByName(want.Name)
		if err != nil || got != want {
			t.Errorf("PresetByName(%q) = %+v, %v; want %+v", want.Name, got, err, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = PresetByName(want.Name) }); allocs != 0 {
			t.Errorf("PresetByName(%q) allocated %v times per call", want.Name, allocs)
		}
	}
	_, err := PresetByName("token-ring")
	if err == nil || err.Error() != `network: unknown preset "token-ring"` {
		t.Fatalf("PresetByName(unknown) error = %v", err)
	}
}

func TestLogGPSingleMessageTime(t *testing.T) {
	p := GigabitEthernet()
	k := sim.New(1)
	f := NewLogGP(k, p, 2)
	var delivered sim.Time = -1
	var injected sim.Time = -1
	f.Send(0, 1, 1000, func() { injected = k.Now() }, func() { delivered = k.Now() })
	k.Run()
	occ := sim.Time(1000) * p.ByteTime
	if occ < p.Gap {
		occ = p.Gap
	}
	wantInj := p.Overhead + occ
	wantDel := p.Overhead + occ + p.Latency + p.Overhead
	if math.Abs(float64(injected-wantInj)) > 1e-12 {
		t.Errorf("injected at %v, want %v", injected, wantInj)
	}
	if math.Abs(float64(delivered-wantDel)) > 1e-12 {
		t.Errorf("delivered at %v, want %v", delivered, wantDel)
	}
	if got := f.MessageTime(1000); math.Abs(float64(got-wantDel)) > 1e-12 {
		t.Errorf("MessageTime = %v, want %v", got, wantDel)
	}
}

func TestLogGPSmallMessageGapFloor(t *testing.T) {
	p := QsNet()
	k := sim.New(1)
	f := NewLogGP(k, p, 2)
	// 1-byte message: occupancy floors at g.
	want := 2*p.Overhead + p.Gap + p.Latency
	if got := f.MessageTime(1); math.Abs(float64(got-want)) > 1e-15 {
		t.Errorf("MessageTime(1) = %v, want %v", got, want)
	}
}

func TestLogGPEgressSerialization(t *testing.T) {
	p := GigabitEthernet()
	k := sim.New(1)
	f := NewLogGP(k, p, 3)
	var d1, d2 sim.Time
	// Two back-to-back sends from endpoint 0: the second waits for the
	// first's NIC occupancy.
	f.Send(0, 1, 100000, nil, func() { d1 = k.Now() })
	f.Send(0, 2, 100000, nil, func() { d2 = k.Now() })
	k.Run()
	occ := sim.Time(100000) * p.ByteTime
	if d2-d1 < occ*0.99 {
		t.Errorf("second send delivered %v after first, want >= occupancy %v", d2-d1, occ)
	}
}

func TestLogGPIngressContention(t *testing.T) {
	p := GigabitEthernet()
	k := sim.New(1)
	f := NewLogGP(k, p, 3)
	var done []sim.Time
	// Two senders to the same destination: deliveries serialize at the
	// receiver NIC... ingress ordering keeps them at least apart in time.
	f.Send(0, 2, 1000000, nil, func() { done = append(done, k.Now()) })
	f.Send(1, 2, 1000000, nil, func() { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatal("lost a delivery")
	}
	single := f.MessageTime(1000000)
	// Sequentialized pair takes notably longer than one message alone.
	if done[1] < single {
		t.Errorf("contended pair finished at %v, faster than single message %v", done[1], single)
	}
}

func TestLogGPSelfSendPanics(t *testing.T) {
	k := sim.New(1)
	f := NewLogGP(k, GigabitEthernet(), 2)
	defer func() {
		if recover() == nil {
			t.Error("self-send did not panic")
		}
	}()
	f.Send(1, 1, 10, nil, nil)
}

func TestLogGPCounters(t *testing.T) {
	k := sim.New(1)
	f := NewLogGP(k, GigabitEthernet(), 2)
	f.Send(0, 1, 100, nil, nil)
	f.Send(1, 0, 200, nil, nil)
	k.Run()
	if f.Messages != 2 || f.Bytes != 300 {
		t.Fatalf("counters = %d msgs, %d bytes; want 2, 300", f.Messages, f.Bytes)
	}
}

func TestPacketNetSingleMessagePipelines(t *testing.T) {
	p := Myrinet2000()
	k := sim.New(1)
	g := topology.Crossbar(4)
	f := NewPacketNet(k, p, g)
	var delivered sim.Time = -1
	const bytes = 1 << 20
	f.Send(0, 1, bytes, nil, func() { delivered = k.Now() })
	k.Run()
	// Store-and-forward over 2 hops: serialized by the bottleneck link,
	// plus one extra packet time for the second hop.
	npkts := (bytes + p.MTU - 1) / p.MTU
	tx := sim.Time(p.MTU) * p.ByteTime
	want := p.Overhead + sim.Time(npkts)*tx + tx + 2*p.PerHopDelay + p.Latency + p.Overhead
	if math.Abs(float64(delivered-want)) > 0.02*float64(want) {
		t.Errorf("delivered at %v, want ~%v", delivered, want)
	}
}

func TestPacketNetMatchesLogGPUncontended(t *testing.T) {
	// For large messages with no contention, packet-level and analytic
	// models must agree within the per-hop pipelining slack.
	p := InfiniBand4X()
	for _, bytes := range []int64{64 << 10, 1 << 20, 8 << 20} {
		k1 := sim.New(1)
		la := NewLogGP(k1, p, 4)
		var tA sim.Time
		la.Send(0, 1, bytes, nil, func() { tA = k1.Now() })
		k1.Run()

		k2 := sim.New(1)
		pk := NewPacketNet(k2, p, topology.Crossbar(4))
		var tB sim.Time
		pk.Send(0, 1, bytes, nil, func() { tB = k2.Now() })
		k2.Run()

		if diff := math.Abs(float64(tA-tB)) / float64(tA); diff > 0.05 {
			t.Errorf("%d bytes: loggp %v vs packet %v (%.1f%% apart)", bytes, tA, tB, diff*100)
		}
	}
}

func TestPacketNetSharedLinkContention(t *testing.T) {
	p := GigabitEthernet()
	k := sim.New(1)
	g := topology.Crossbar(4)
	f := NewPacketNet(k, p, g)
	const bytes = 1 << 20
	var t1, t2 sim.Time
	// Both messages target endpoint 3: they share its ingress link and
	// must serialize, taking ~2x one transfer.
	f.Send(0, 3, bytes, nil, func() { t1 = k.Now() })
	f.Send(1, 3, bytes, nil, func() { t2 = k.Now() })
	k.Run()
	last := t1
	if t2 > last {
		last = t2
	}
	oneTransfer := sim.Time(bytes) * p.ByteTime
	if last < 1.9*oneTransfer {
		t.Errorf("two converging transfers finished in %v, want >= ~2x single %v", last, oneTransfer)
	}
}

func TestPacketNetDisjointPathsDontContend(t *testing.T) {
	p := GigabitEthernet()
	k := sim.New(1)
	g := topology.Crossbar(4)
	f := NewPacketNet(k, p, g)
	const bytes = 1 << 20
	var t1, t2 sim.Time
	f.Send(0, 1, bytes, nil, func() { t1 = k.Now() })
	f.Send(2, 3, bytes, nil, func() { t2 = k.Now() })
	k.Run()
	oneTransfer := sim.Time(bytes) * p.ByteTime
	for _, tt := range []sim.Time{t1, t2} {
		if tt > 1.1*oneTransfer+p.Latency+2*p.Overhead+1000*p.PerHopDelay {
			t.Errorf("disjoint transfer took %v, expected ~uncontended %v", tt, oneTransfer)
		}
	}
}

func TestPacketNetZeroByteMessage(t *testing.T) {
	k := sim.New(1)
	f := NewPacketNet(k, QsNet(), topology.Crossbar(2))
	var delivered bool
	f.Send(0, 1, 0, nil, func() { delivered = true })
	k.Run()
	if !delivered {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestCircuitSetupAmortization(t *testing.T) {
	p := OpticalCircuit()
	k := sim.New(1)
	c := NewCircuit(k, p, 4)
	var times []sim.Time
	done := func() { times = append(times, k.Now()) }
	// Three sends to the same destination: one setup only.
	c.Send(0, 1, 1000, nil, done)
	c.Send(0, 1, 1000, nil, done)
	c.Send(0, 1, 1000, nil, done)
	k.Run()
	if c.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", c.Reconfigs)
	}
	// First send pays setup; gaps between subsequent completions are tiny.
	if times[0] < p.CircuitSetup {
		t.Errorf("first delivery %v did not pay setup %v", times[0], p.CircuitSetup)
	}
	if gap := times[2] - times[1]; gap > p.CircuitSetup/10 {
		t.Errorf("amortized send gap %v, want << setup", gap)
	}
}

func TestCircuitReconfiguresOnNewDestination(t *testing.T) {
	p := OpticalCircuit()
	k := sim.New(1)
	c := NewCircuit(k, p, 4)
	c.Send(0, 1, 10, nil, nil)
	c.Send(0, 2, 10, nil, nil)
	c.Send(0, 1, 10, nil, nil) // back again: pays setup a third time
	k.Run()
	if c.Reconfigs != 3 {
		t.Fatalf("reconfigs = %d, want 3", c.Reconfigs)
	}
}

func TestCircuitDestinationSerializes(t *testing.T) {
	p := OpticalCircuit()
	k := sim.New(1)
	c := NewCircuit(k, p, 4)
	var t1, t2 sim.Time
	big := int64(100 << 20) // 100 MB: transfer time >> setup
	c.Send(0, 3, big, nil, func() { t1 = k.Now() })
	c.Send(1, 3, big, nil, func() { t2 = k.Now() })
	k.Run()
	tx := sim.Time(big) * p.ByteTime
	last := t2
	if t1 > last {
		last = t1
	}
	if last < 2*tx {
		t.Errorf("two circuits into one destination completed at %v, want >= %v", last, 2*tx)
	}
}

// Property: in every fabric model, delivery time is nondecreasing in
// message size (a longer message can never arrive earlier).
func TestFabricMonotonicityProperty(t *testing.T) {
	build := []func(k *sim.Kernel) Fabric{
		func(k *sim.Kernel) Fabric { return NewLogGP(k, GigabitEthernet(), 2) },
		func(k *sim.Kernel) Fabric { return NewPacketNet(k, Myrinet2000(), topology.Crossbar(2)) },
		func(k *sim.Kernel) Fabric { return NewCircuit(k, OpticalCircuit(), 2) },
	}
	prop := func(rawA, rawB uint32) bool {
		a, b := int64(rawA%(8<<20)), int64(rawB%(8<<20))
		if a > b {
			a, b = b, a
		}
		times := make([]sim.Time, 2)
		for _, mk := range build {
			for i, bytes := range []int64{a, b} {
				k := sim.New(1)
				f := mk(k)
				i := i
				f.Send(0, 1, bytes, nil, func() { times[i] = k.Now() })
				k.Run()
			}
			if times[0] > times[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSendCallsEachCallbackOnce pins the Fabric.Send contract the
// messaging layer's record pools rely on: every fabric calls each
// non-nil callback exactly once, whatever the message size, and copes
// with either callback being nil.
func TestSendCallsEachCallbackOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		make func(k *sim.Kernel) Fabric
	}{
		{"loggp", func(k *sim.Kernel) Fabric { return NewLogGP(k, Myrinet2000(), 16) }},
		{"packet", func(k *sim.Kernel) Fabric { return NewPacketNet(k, Myrinet2000(), topology.FatTree(4, 2)) }},
		{"wormhole", func(k *sim.Kernel) Fabric { return NewWormholeNet(k, InfiniBand4X(), topology.FatTree(4, 2), 2) }},
		{"circuit", func(k *sim.Kernel) Fabric { return NewCircuit(k, OpticalCircuit(), 16) }},
		{"hierarchical", func(k *sim.Kernel) Fabric {
			h, err := NewHierarchical(NewLogGP(k, SharedMemory(1e9), 16), NewLogGP(k, Myrinet2000(), 8), 2)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.New(1)
			f := c.make(k)
			const msgs = 64
			var injected, delivered [msgs]int
			for i := 0; i < msgs; i++ {
				i := i
				src, dst := i%16, (i*7+3)%16
				if src == dst {
					dst = (dst + 1) % 16
				}
				var onInj, onDel func()
				if i%4 != 1 {
					onInj = func() { injected[i]++ }
				}
				if i%4 != 2 {
					onDel = func() { delivered[i]++ }
				}
				size := []int64{0, 100, 5000, 300 << 10}[i/4%4]
				k.At(sim.Time(i%5)*sim.Microsecond, func() { f.Send(src, dst, size, onInj, onDel) })
			}
			k.Run()
			for i := 0; i < msgs; i++ {
				wantInj, wantDel := 1, 1
				if i%4 == 1 {
					wantInj = 0
				}
				if i%4 == 2 {
					wantDel = 0
				}
				if injected[i] != wantInj || delivered[i] != wantDel {
					t.Errorf("message %d: onInjected ran %d times, onDelivered %d", i, injected[i], delivered[i])
				}
			}
		})
	}
}
