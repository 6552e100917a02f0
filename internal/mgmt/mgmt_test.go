package mgmt

import (
	"math"
	"testing"
	"testing/quick"

	"northstar/internal/sim"
)

func TestValidate(t *testing.T) {
	bad := []Monitor{
		{Nodes: 0},
		{Nodes: 4, Fanout: 1},
		{Nodes: 4, Fanout: -2},
		{Nodes: 4, Period: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, m)
		}
	}
	if err := (Monitor{Nodes: 100, Fanout: 16}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevels(t *testing.T) {
	cases := []struct {
		nodes, fanout, want int
	}{
		{100, 0, 1},
		{16, 16, 1},
		{17, 16, 2},
		{256, 16, 2},
		{100000, 16, 5},
		{1, 16, 1},
	}
	for _, c := range cases {
		m := Monitor{Nodes: c.nodes, Fanout: c.fanout}
		if got := m.Levels(); got != c.want {
			t.Errorf("Levels(%d nodes, fanout %d) = %d, want %d", c.nodes, c.fanout, got, c.want)
		}
	}
}

func TestFlatMasterSaturates(t *testing.T) {
	// A flat monitor with 1 s heartbeats saturates a 5000-report/s
	// collector somewhere between 10^3 and 10^4 nodes.
	small := Monitor{Nodes: 1000, Period: sim.Second}
	big := Monitor{Nodes: 100000, Period: sim.Second}
	if small.Saturated() {
		t.Error("1000-node flat monitor should not saturate")
	}
	if !big.Saturated() {
		t.Error("100k-node flat monitor must saturate")
	}
	if big.DetectionLatency() != sim.Forever {
		t.Error("saturated monitor should report unbounded detection latency")
	}
}

func TestTreeScalesWhereFlatFails(t *testing.T) {
	flat := Monitor{Nodes: 100000, Period: sim.Second}
	tree := Monitor{Nodes: 100000, Period: sim.Second, Fanout: 16}
	if tree.Saturated() {
		t.Fatal("16-ary tree saturated at 100k nodes")
	}
	if tree.CollectorLoad() >= flat.CollectorLoad() {
		t.Fatal("tree did not reduce collector load")
	}
	// Detection latency grows only by per-level hop delays over the
	// single-level baseline.
	lat := tree.DetectionLatency()
	base := (Monitor{Nodes: 16, Period: sim.Second, Fanout: 16}).DetectionLatency()
	extraHops := sim.Time(tree.Levels()-1) * 50 * sim.Millisecond
	if math.Abs(float64(lat-base-extraHops)) > 1e-9 {
		t.Fatalf("tree latency %v vs base %v: extra %v, want %v", lat, base, lat-base, extraHops)
	}
}

func TestSimulatedDetectionWithinAnalyticBound(t *testing.T) {
	m := Monitor{Nodes: 64, Period: sim.Second, Misses: 2, Fanout: 8}
	analytic := m.DetectionLatency()
	for seed := int64(1); seed <= 10; seed++ {
		got, err := m.SimulateDetection(seed)
		if err != nil {
			t.Fatal(err)
		}
		// Simulated latency is positive, at least (Misses-1) periods, and
		// never exceeds the analytic worst case plus poll granularity.
		if got < sim.Time(m.Misses-1)*m.Period {
			t.Fatalf("seed %d: latency %v implausibly small", seed, got)
		}
		if got > analytic+m.Period {
			t.Fatalf("seed %d: latency %v exceeds analytic bound %v", seed, got, analytic)
		}
	}
}

func TestSimulateSaturatedReturnsForever(t *testing.T) {
	m := Monitor{Nodes: 100000, Period: sim.Second}
	got, err := m.SimulateDetection(1)
	if err != nil || got != sim.Forever {
		t.Fatalf("saturated sim = %v, %v", got, err)
	}
}

// Property: tree depth is logarithmic — doubling nodes adds at most one
// level — and detection latency is monotone in Misses.
func TestMonitorScalingProperty(t *testing.T) {
	prop := func(rawNodes uint16, rawMisses uint8) bool {
		nodes := int(rawNodes%30000) + 2
		m := Monitor{Nodes: nodes, Fanout: 16}
		m2 := Monitor{Nodes: nodes * 2, Fanout: 16}
		if m2.Levels() > m.Levels()+1 {
			return false
		}
		misses := int(rawMisses%5) + 1
		a := Monitor{Nodes: nodes, Fanout: 16, Misses: misses}
		b := Monitor{Nodes: nodes, Fanout: 16, Misses: misses + 1}
		return b.DetectionLatency() > a.DetectionLatency()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
