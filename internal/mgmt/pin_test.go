package mgmt

import (
	"testing"

	"northstar/internal/sim"
)

// Pin-behavior tests: exact analytic outputs for representative
// configurations, recorded so any change to the scaling laws shows up
// as an explicit diff here instead of as drift in E9/X5's tables.

func TestAnalyticValuesPinned(t *testing.T) {
	cases := []struct {
		name    string
		m       Monitor
		levels  int
		load    float64 // reports/s at the busiest collector
		latency sim.Time
	}{
		{
			name:   "flat-100-defaults",
			m:      Monitor{Nodes: 100},
			levels: 1, load: 10,
			latency: 30 * sim.Second, // (Misses+1) * default 10s period
		},
		{
			name:   "tree-4096-fanout16",
			m:      Monitor{Nodes: 4096, Period: sim.Second, Fanout: 16},
			levels: 3, load: 16,
			latency: 3*sim.Second + 2*50*sim.Millisecond,
		},
		{
			name:   "tree-boundary-exact-power",
			m:      Monitor{Nodes: 256, Period: sim.Second, Fanout: 16},
			levels: 2, load: 16,
			latency: 3*sim.Second + 50*sim.Millisecond,
		},
		{
			name:   "single-node",
			m:      Monitor{Nodes: 1, Period: sim.Second, Fanout: 4},
			levels: 1, load: 4,
			latency: 3 * sim.Second,
		},
		{
			name:   "flat-saturated",
			m:      Monitor{Nodes: 100000, Period: sim.Second},
			levels: 1, load: 100000,
			latency: sim.Forever,
		},
	}
	for _, c := range cases {
		if got := c.m.Levels(); got != c.levels {
			t.Errorf("%s: Levels = %d, want %d", c.name, got, c.levels)
		}
		if got := c.m.CollectorLoad(); got != c.load {
			t.Errorf("%s: CollectorLoad = %g, want %g", c.name, got, c.load)
		}
		if got := c.m.DetectionLatency(); got != c.latency {
			t.Errorf("%s: DetectionLatency = %v, want %v", c.name, got, c.latency)
		}
	}
}

func TestSimulateDetectionRejectsInvalid(t *testing.T) {
	for _, m := range []Monitor{
		{Nodes: 0},
		{Nodes: 10, Fanout: 1},
		{Nodes: 10, Fanout: -2},
	} {
		if _, err := m.SimulateDetection(1); err == nil {
			t.Errorf("SimulateDetection(%+v) did not reject the config", m)
		}
	}
}

func TestSimulateDetectionSaturatedIsForever(t *testing.T) {
	m := Monitor{Nodes: 100000, Period: sim.Second}
	got, err := m.SimulateDetection(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != sim.Forever {
		t.Errorf("saturated flat monitor simulated %v, want Forever", got)
	}
}
