package network

import (
	"fmt"

	"northstar/internal/sim"
)

// SharedMemory returns the intra-node "fabric": message passing through
// the node's own memory system (a copy through a shared buffer). Pass
// the node's memory bandwidth in bytes/s; an intra-node transfer runs
// at roughly half of it (one read + one write stream).
func SharedMemory(memBandwidth float64) Preset {
	if memBandwidth <= 0 {
		panic("network: shared memory needs positive bandwidth")
	}
	return Preset{
		Name:        "shared-memory",
		Latency:     0.4 * sim.Microsecond,
		Overhead:    0.2 * sim.Microsecond,
		Gap:         0.1 * sim.Microsecond,
		ByteTime:    sim.Time(2 / memBandwidth),
		PerHopDelay: 0,
		MTU:         1 << 20,
	}
}

// Hierarchical is a two-level fabric for clusters of SMP nodes running
// several ranks per node ("SMP on a chip" deployed hybrid-style): ranks
// co-located on a node communicate through the intra fabric (shared
// memory), ranks on different nodes share their node's NIC on the inter
// fabric — so inter-node traffic from all of a node's ranks contends
// for one pair of NIC endpoints, exactly the serialization that makes
// hybrid placement interesting.
type Hierarchical struct {
	intra        Fabric // one endpoint per rank
	inter        Fabric // one endpoint per node
	ranksPerNode int
	probe        Probe
}

// NewHierarchical builds the two-level fabric. intra must have
// inter.NumEndpoints() x ranksPerNode endpoints (one per rank); both
// fabrics must share a kernel.
func NewHierarchical(intra, inter Fabric, ranksPerNode int) (*Hierarchical, error) {
	if ranksPerNode <= 0 {
		return nil, fmt.Errorf("network: ranks per node must be positive")
	}
	if intra.Kernel() != inter.Kernel() {
		return nil, fmt.Errorf("network: hierarchical fabrics must share a kernel")
	}
	if intra.NumEndpoints() != inter.NumEndpoints()*ranksPerNode {
		return nil, fmt.Errorf("network: intra has %d endpoints, want %d nodes x %d ranks",
			intra.NumEndpoints(), inter.NumEndpoints(), ranksPerNode)
	}
	h := &Hierarchical{intra: intra, inter: inter, ranksPerNode: ranksPerNode}
	probe, _ := intra.Kernel().Probe().(Probe)
	h.SetProbe(probe)
	return h, nil
}

// SetProbe attaches p (nil detaches). The hierarchical fabric owns no
// links of its own — the intra and inter fabrics carry their own probes
// and report their own occupancy and deliveries — so it registers zero
// links and reports only message routing (injections).
func (h *Hierarchical) SetProbe(p Probe) {
	h.probe = p
	if p != nil {
		p.FabricBuilt(KindHierarchical, 0)
	}
}

// Name implements Fabric.
func (h *Hierarchical) Name() string {
	return fmt.Sprintf("%s+%s/x%d", h.intra.Name(), h.inter.Name(), h.ranksPerNode)
}

// Kernel implements Fabric.
func (h *Hierarchical) Kernel() *sim.Kernel { return h.inter.Kernel() }

// NumEndpoints implements Fabric: one endpoint per rank.
func (h *Hierarchical) NumEndpoints() int { return h.intra.NumEndpoints() }

// RanksPerNode returns the ranks sharing each node.
func (h *Hierarchical) RanksPerNode() int { return h.ranksPerNode }

// NodeOf returns the node index hosting rank ep.
func (h *Hierarchical) NodeOf(ep int) int { return ep / h.ranksPerNode }

// Reset implements Fabric, resetting both levels.
func (h *Hierarchical) Reset() {
	h.intra.Reset()
	h.inter.Reset()
}

// Send implements Fabric.
func (h *Hierarchical) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	if src < 0 || src >= h.NumEndpoints() || dst < 0 || dst >= h.NumEndpoints() {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, h.NumEndpoints()))
	}
	if h.probe != nil {
		h.probe.MessageInjected(KindHierarchical, bytes, 1)
	}
	sn, dn := h.NodeOf(src), h.NodeOf(dst)
	if sn == dn {
		h.intra.Send(src, dst, bytes, onInjected, onDelivered)
		return
	}
	// Cross-node: the rank's traffic funnels through its node's NIC,
	// serializing with its node-mates' traffic on the inter fabric.
	h.inter.Send(sn, dn, bytes, onInjected, onDelivered)
}
