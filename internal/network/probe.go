package network

import "northstar/internal/sim"

// FabricKind discriminates the built-in fabric models in probe events, so
// one probe can keep per-fabric sections (a LogGP sweep and a wormhole
// congestion run observed in the same experiment stay separate).
type FabricKind uint8

// The fabric kinds, in the order their models appear in the package.
const (
	KindLogGP FabricKind = iota
	KindPacket
	KindCircuit
	KindWormhole
	KindHierarchical
	NumFabricKinds int = iota
)

// String returns the kind's section name as used in metric snapshots.
func (k FabricKind) String() string {
	switch k {
	case KindLogGP:
		return "loggp"
	case KindPacket:
		return "packet"
	case KindCircuit:
		return "circuit"
	case KindWormhole:
		return "wormhole"
	case KindHierarchical:
		return "hierarchical"
	}
	return "unknown"
}

// Probe observes fabric internals: traffic injected and delivered, link
// occupancy, and fast-path use. It is the model-level analog of
// sim.Probe — each hook site is guarded by a single nil-check, so an
// unobserved fabric pays nothing on its hot path (cmd/bench fails if an
// attached probe adds more than 10% per send).
//
// A fabric takes its probe from its kernel when it is built: if the
// kernel's sim.Probe also implements Probe, the fabric reports to it,
// otherwise the fabric holds nil. That is how fabrics built deep inside
// machine code are observed without a probe parameter on every
// constructor. SetProbe on a fabric replaces that choice.
//
// All methods are called synchronously from the goroutine driving the
// fabric's kernel, so implementations need no locking as long as one
// probe observes fabrics driven from one goroutine at a time. Probe
// calls must not send messages or schedule events: they observe the
// fabric, they are not part of the simulation — attaching a probe never
// changes a single delivery time.
type Probe interface {
	// FabricBuilt is called once per fabric construction with the number
	// of directed links the fabric serializes on (NIC ports for endpoint
	// models, directed graph links for topology models). Observers use
	// the link count to turn accumulated busy time into utilization.
	FabricBuilt(kind FabricKind, links int)
	// MessageInjected is called once per Send with the message size and
	// the packet count it was segmented into (1 for unsegmented models).
	MessageInjected(kind FabricKind, bytes, packets int64)
	// MessageDelivered is called when a message's end-to-end virtual
	// latency is known: Send call to last byte at the destination,
	// including both CPU overheads. Analytic fabrics report it inside
	// Send; event-driven fabrics report it when the final packet lands.
	MessageDelivered(kind FabricKind, bytes int64, latency sim.Time)
	// LinkBusy is called as transmission occupancy accrues on the
	// fabric's links (virtual seconds of link-holding time; one message
	// crossing h store-and-forward hops reports h transmission times).
	LinkBusy(kind FabricKind, busy sim.Time)
	// FastPath is called when PacketNet.BatchBulk extrapolates packets
	// in O(hops) instead of simulating them, with the packet count.
	FastPath(kind FabricKind, packets int64)
}
