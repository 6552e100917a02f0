package network

import (
	"strings"
	"testing"

	"northstar/internal/sim"
)

func buildHier(t *testing.T, nodes, rpn int) (*sim.Kernel, *Hierarchical) {
	t.Helper()
	k := sim.New(1)
	inter := NewLogGP(k, GigabitEthernet(), nodes)
	intra := NewLogGP(k, SharedMemory(3.2e9), nodes*rpn)
	h, err := NewHierarchical(intra, inter, rpn)
	if err != nil {
		t.Fatal(err)
	}
	return k, h
}

func TestHierarchicalValidation(t *testing.T) {
	k := sim.New(1)
	inter := NewLogGP(k, GigabitEthernet(), 4)
	intra := NewLogGP(k, SharedMemory(3.2e9), 7) // not 4 x rpn
	if _, err := NewHierarchical(intra, inter, 2); err == nil {
		t.Error("mismatched endpoint counts accepted")
	}
	if _, err := NewHierarchical(NewLogGP(k, SharedMemory(1e9), 8), inter, 0); err == nil {
		t.Error("zero ranks per node accepted")
	}
	k2 := sim.New(2)
	other := NewLogGP(k2, SharedMemory(1e9), 8)
	if _, err := NewHierarchical(other, inter, 2); err == nil {
		t.Error("fabrics on different kernels accepted")
	}
}

func TestSharedMemoryPreset(t *testing.T) {
	p := SharedMemory(6.4e9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if bw := p.Bandwidth(); bw < 3e9 || bw > 3.3e9 {
		t.Errorf("shared-memory bandwidth = %g, want ~half of 6.4e9", bw)
	}
	if p.Latency >= GigabitEthernet().Latency {
		t.Error("shared memory should be lower latency than the NIC path")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive bandwidth accepted")
		}
	}()
	SharedMemory(0)
}

func TestHierarchicalIntraVsInterLatency(t *testing.T) {
	k, h := buildHier(t, 4, 2)
	var intraT, interT sim.Time
	// Ranks 0 and 1 share node 0; ranks 0 and 2 are on different nodes.
	h.Send(0, 1, 1024, nil, func() { intraT = k.Now() })
	k.Run()
	k2, h2 := buildHier(t, 4, 2)
	h2.Send(0, 2, 1024, nil, func() { interT = k2.Now() })
	k2.Run()
	if intraT >= interT {
		t.Errorf("intra-node delivery %v not faster than inter-node %v", intraT, interT)
	}
}

func TestHierarchicalNodeOf(t *testing.T) {
	_, h := buildHier(t, 4, 3)
	cases := map[int]int{0: 0, 2: 0, 3: 1, 11: 3}
	for ep, want := range cases {
		if got := h.NodeOf(ep); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", ep, got, want)
		}
	}
	if h.NumEndpoints() != 12 || h.RanksPerNode() != 3 {
		t.Errorf("endpoints=%d rpn=%d", h.NumEndpoints(), h.RanksPerNode())
	}
}

func TestHierarchicalNICSerialization(t *testing.T) {
	// Two ranks on node 0 both sending cross-node share one NIC: their
	// transfers serialize. The same two transfers from different nodes
	// do not.
	const bytes = 1 << 20
	k, h := buildHier(t, 4, 2)
	var last sim.Time
	done := func() {
		if k.Now() > last {
			last = k.Now()
		}
	}
	h.Send(0, 4, bytes, nil, done) // node 0 -> node 2
	h.Send(1, 6, bytes, nil, done) // node 0 -> node 3 (same NIC!)
	k.Run()
	shared := last

	k2, h2 := buildHier(t, 4, 2)
	last = 0
	done2 := func() {
		if k2.Now() > last {
			last = k2.Now()
		}
	}
	h2.Send(0, 4, bytes, nil, done2) // node 0 -> node 2
	h2.Send(2, 6, bytes, nil, done2) // node 1 -> node 3 (own NIC)
	k2.Run()
	separate := last

	if shared < separate*3/2 {
		t.Errorf("shared-NIC completion %v vs separate-NIC %v; want >= 1.5x serialization", shared, separate)
	}
}

func TestHierarchicalCountsTraffic(t *testing.T) {
	_, h := buildHier(t, 2, 2)
	if !strings.Contains(h.Name(), "shared-memory") || !strings.Contains(h.Name(), "x2") {
		t.Errorf("Name() = %q", h.Name())
	}
}
