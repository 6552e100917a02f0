package machine

import (
	"strings"
	"testing"

	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/tech"
)

func model() node.Model {
	return node.MustBuild(node.Conventional, tech.Default2002(), 2002)
}

func TestNewLogGPDefault(t *testing.T) {
	m, err := New(Config{Nodes: 16, Node: model(), Fabric: network.GigabitEthernet(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 16 || m.Fabric().NumEndpoints() != 16 {
		t.Fatalf("nodes=%d endpoints=%d", m.Nodes(), m.Fabric().NumEndpoints())
	}
	if !strings.Contains(m.Fabric().Name(), "loggp") {
		t.Fatalf("default fabric = %s, want loggp", m.Fabric().Name())
	}
	if m.PeakFlops() != 16*model().PeakFlops {
		t.Fatalf("peak = %g", m.PeakFlops())
	}
}

func TestNewCircuitFabric(t *testing.T) {
	m, err := New(Config{Nodes: 8, Node: model(), Fabric: network.OpticalCircuit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Fabric().Name(), "circuit") {
		t.Fatalf("fabric = %s, want circuit", m.Fabric().Name())
	}
}

func TestNewPacketTopologies(t *testing.T) {
	for _, topo := range []Topology{TopoCrossbar, TopoFatTree, TopoTorus2D, TopoTorus3D, TopoHypercube, ""} {
		m, err := New(Config{
			Nodes: 13, Node: model(), Fabric: network.Myrinet2000(),
			PacketLevel: true, Topology: topo, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%q: %v", topo, err)
		}
		if m.Fabric().NumEndpoints() < 13 {
			t.Fatalf("%q: %d endpoints for 13 nodes", topo, m.Fabric().NumEndpoints())
		}
		// The machine can deliver a message between its extreme nodes.
		done := false
		m.Fabric().Send(0, 12, 1000, nil, func() { done = true })
		m.Run()
		if !done {
			t.Fatalf("%q: message never delivered", topo)
		}
	}
}

// TestTopologyBuild pins the sizing rule `northstar topo` relies on: the
// smallest graph of each kind covering n endpoints, with the empty kind
// meaning the fat tree.
func TestTopologyBuild(t *testing.T) {
	for _, c := range []struct {
		topo   Topology
		n, eps int
	}{
		{TopoCrossbar, 13, 13},
		{TopoFatTree, 64, 64}, {TopoFatTree, 65, 256}, {"", 13, 16},
		{TopoTorus2D, 100, 100}, {TopoTorus2D, 101, 121},
		{TopoTorus3D, 64, 64}, {TopoTorus3D, 65, 125},
		{TopoHypercube, 64, 64}, {TopoHypercube, 65, 128},
	} {
		g, err := c.topo.Build(c.n)
		if err != nil {
			t.Fatalf("%q.Build(%d): %v", c.topo, c.n, err)
		}
		if got := g.NumEndpoints(); got != c.eps {
			t.Errorf("%q.Build(%d) has %d endpoints, want %d", c.topo, c.n, got, c.eps)
		}
	}
	if _, err := TopoTorus2D.Build(0); err == nil {
		t.Error("Build(0) accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Node: model(), Fabric: network.GigabitEthernet()}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(Config{Nodes: 4, Node: model(), Fabric: network.Preset{}}); err == nil {
		t.Error("invalid fabric accepted")
	}
	if _, err := New(Config{Nodes: 4, Node: model(), Fabric: network.Myrinet2000(),
		PacketLevel: true, Topology: "moebius"}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunAdvancesKernel(t *testing.T) {
	m, err := New(Config{Nodes: 2, Node: model(), Fabric: network.GigabitEthernet(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel().After(5*sim.Second, func() {})
	if end := m.Run(); end != 5*sim.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestStringDescribesMachine(t *testing.T) {
	m, err := New(Config{Nodes: 4, Node: model(), Fabric: network.QsNet(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "4 x") || !strings.Contains(s, "qsnet") {
		t.Fatalf("String() = %q", s)
	}
}

func TestNewWormholeFabric(t *testing.T) {
	m, err := New(Config{
		Nodes: 8, Node: model(), Fabric: network.InfiniBand4X(),
		Wormhole: true, Topology: TopoFatTree, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Fabric().Name(), "wormhole") {
		t.Fatalf("fabric = %s, want wormhole", m.Fabric().Name())
	}
	done := false
	m.Fabric().Send(0, 7, 10000, nil, func() { done = true })
	m.Run()
	if !done {
		t.Fatal("wormhole machine failed to deliver")
	}
}
