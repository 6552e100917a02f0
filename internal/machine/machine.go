// Package machine assembles a simulated cluster: N nodes of one
// architecture joined by one fabric on one kernel. It is the execution
// substrate the message-passing layer (internal/msg) and the application
// skeletons (internal/workload) run on.
package machine

import (
	"fmt"
	"math"

	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/topology"
)

// Topology names the wiring used when packet-level simulation is on.
type Topology string

// Supported topologies.
const (
	TopoCrossbar  Topology = "crossbar"
	TopoFatTree   Topology = "fattree"
	TopoTorus2D   Topology = "torus2d"
	TopoTorus3D   Topology = "torus3d"
	TopoHypercube Topology = "hypercube"
)

// Config describes a machine to build.
type Config struct {
	// Nodes is the number of compute nodes (fabric endpoints).
	Nodes int
	// Node is the per-node hardware model.
	Node node.Model
	// Fabric parameterizes the interconnect.
	Fabric network.Preset
	// PacketLevel selects the packet simulator over the analytic LogGP
	// model (ignored for circuit fabrics, which have no packet path).
	PacketLevel bool
	// Wormhole selects the credit-flow-controlled wormhole simulator —
	// the highest fidelity, modeling backpressure and congestion trees.
	// Implies packet-level; use only on up/down-routed topologies
	// (crossbar, fat tree). BufferPackets sets the per-link input
	// buffer depth (0 = 4).
	Wormhole      bool
	BufferPackets int
	// Topology selects the wiring for packet-level simulation;
	// default fat tree.
	Topology Topology
	// RanksPerNode runs several ranks on each node (hybrid placement on
	// SMP nodes): co-located ranks communicate through shared memory and
	// share their node's NIC; each rank gets 1/RanksPerNode of the
	// node's compute and memory bandwidth. Default 1.
	RanksPerNode int
	// Seed drives all randomness.
	Seed int64
}

// Machine is a ready-to-run simulated cluster.
type Machine struct {
	kernel       *sim.Kernel
	fabric       network.Fabric
	model        node.Model
	rankModel    node.Model
	nodes        int
	ranksPerNode int
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("machine: need at least one node, got %d", cfg.Nodes)
	}
	rpn := cfg.RanksPerNode
	if rpn == 0 {
		rpn = 1
	}
	if rpn < 0 {
		return nil, fmt.Errorf("machine: ranks per node must be positive, got %d", rpn)
	}
	if err := cfg.Fabric.Validate(); err != nil {
		return nil, err
	}
	// Nodes with on-die network interfaces pay less per-message CPU
	// overhead on the same wire.
	if s := cfg.Node.NICOverheadScale; s > 0 && s != 1 {
		cfg.Fabric.Overhead = sim.Time(float64(cfg.Fabric.Overhead) * s)
	}
	k := sim.New(cfg.Seed)
	var fab network.Fabric
	switch {
	case cfg.Fabric.CircuitSetup > 0:
		fab = network.NewCircuit(k, cfg.Fabric, cfg.Nodes)
	case cfg.Wormhole:
		g, err := cfg.Topology.Build(cfg.Nodes)
		if err != nil {
			return nil, err
		}
		fab = network.NewWormholeNet(k, cfg.Fabric, g, cfg.BufferPackets)
	case cfg.PacketLevel:
		g, err := cfg.Topology.Build(cfg.Nodes)
		if err != nil {
			return nil, err
		}
		fab = network.NewPacketNet(k, cfg.Fabric, g)
	default:
		fab = network.NewLogGP(k, cfg.Fabric, cfg.Nodes)
	}
	if rpn > 1 {
		intra := network.NewLogGP(k, network.SharedMemory(cfg.Node.MemBandwidth), fab.NumEndpoints()*rpn)
		h, err := network.NewHierarchical(intra, fab, rpn)
		if err != nil {
			return nil, err
		}
		fab = h
	}
	// Each rank owns an equal share of its node's engines.
	rankModel := cfg.Node
	rankModel.PeakFlops /= float64(rpn)
	rankModel.MemBandwidth /= float64(rpn)
	rankModel.MemBytes /= float64(rpn)
	return &Machine{
		kernel: k, fabric: fab, model: cfg.Node, rankModel: rankModel,
		nodes: cfg.Nodes, ranksPerNode: rpn,
	}, nil
}

// Build returns the smallest graph of this kind with at least n
// endpoints; a machine uses the first n. The empty Topology builds the
// default fat tree.
func (t Topology) Build(n int) (*topology.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine: need at least one endpoint, got %d", n)
	}
	switch t {
	case TopoCrossbar:
		return topology.Crossbar(n), nil
	case TopoFatTree, "":
		// Smallest 4-ary tree covering n endpoints (arity 4 matches the
		// 2002-era 8-port switches wired as 4 up / 4 down).
		levels := 1
		for pw := 4; pw < n; pw *= 4 {
			levels++
		}
		return topology.FatTree(4, levels), nil
	case TopoTorus2D:
		side := int(math.Ceil(math.Sqrt(float64(n))))
		return topology.Torus2D(side, side), nil
	case TopoTorus3D:
		side := int(math.Ceil(math.Cbrt(float64(n))))
		return topology.Torus3D(side, side, side), nil
	case TopoHypercube:
		dim := 0
		for 1<<uint(dim) < n {
			dim++
		}
		return topology.Hypercube(dim), nil
	default:
		return nil, fmt.Errorf("machine: unknown topology %q", t)
	}
}

// Kernel returns the machine's simulation kernel.
func (m *Machine) Kernel() *sim.Kernel { return m.kernel }

// Fabric returns the machine's interconnect.
func (m *Machine) Fabric() network.Fabric { return m.fabric }

// NodeModel returns the per-node hardware model.
func (m *Machine) NodeModel() node.Model { return m.model }

// RankModel returns the per-rank slice of the node model (equal to
// NodeModel when RanksPerNode is 1).
func (m *Machine) RankModel() node.Model { return m.rankModel }

// Nodes returns the physical node count.
func (m *Machine) Nodes() int { return m.nodes }

// RanksPerNode returns how many ranks share each node.
func (m *Machine) RanksPerNode() int { return m.ranksPerNode }

// Ranks returns the number of simulated processes (nodes x ranks per
// node) — the communicator size the messaging layer uses.
func (m *Machine) Ranks() int { return m.nodes * m.ranksPerNode }

// Run drives the simulation to completion and returns the final virtual
// time.
func (m *Machine) Run() sim.Time { return m.kernel.Run() }

// Reset returns the machine to its just-built state — kernel clock at
// zero with randomness replayed from the construction seed, fabric
// links idle — so one machine can be reused across a parameter sweep
// instead of rebuilt per point. Call it only between completed runs
// (the kernel must be drained); a reset machine behaves bit-identically
// to a freshly built one.
func (m *Machine) Reset() {
	m.kernel.Reset()
	m.fabric.Reset()
}

// PeakFlops returns the machine's aggregate peak flop rate.
func (m *Machine) PeakFlops() float64 { return float64(m.nodes) * m.model.PeakFlops }

// String summarizes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%d x [%s] over %s", m.nodes, m.model, m.fabric.Name())
}
