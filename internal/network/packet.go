package network

import (
	"fmt"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// PacketNet is a packet-level fabric over an explicit topology. Messages
// are segmented into MTU-sized packets that are forwarded store-and-
// forward along the deterministic route, with FIFO serialization on every
// directed link. It therefore models link contention, adaptive-routing
// spreading (via the topology's ECMP hash), and bisection limits — at
// O(packets × hops) events per message.
type PacketNet struct {
	k   *sim.Kernel
	p   Preset
	g   *topology.Graph
	eps []int // fabric endpoint -> graph vertex
	// linkFree[2*edge+dir] is when that directed link finishes its
	// current transmission. dir 0 = A->B.
	linkFree []sim.Time
	probe    Probe
	// Per-send routing scratch. Send is synchronous and never reentered,
	// so one set of buffers serves every message without allocating.
	scrEdges  []int
	scrVerts  []int
	scrDlinks []int
	// BatchBulk enables the steady-state fast path in Send: once a
	// message's full-MTU packets are link-limited at every hop with
	// invariant spacing, the remaining ones are applied in O(hops)
	// arithmetic instead of O(packets × hops). The extrapolated times
	// match the per-packet loop to ~1e-9 relative (one multiply versus
	// repeated float adds; see the differential test) but are not
	// bit-identical, and ulp-level shifts can reorder same-time events
	// downstream — so experiments with pinned outputs must leave it off
	// unless their tables are regenerated. Off by default.
	BatchBulk bool
}

// NewPacketNet builds a packet fabric over g using preset p. The fabric's
// endpoints are g's endpoints in order.
func NewPacketNet(k *sim.Kernel, p Preset, g *topology.Graph) *PacketNet {
	f := &PacketNet{
		k:        k,
		p:        p,
		g:        g,
		eps:      g.Endpoints(),
		linkFree: make([]sim.Time, 2*g.Edges()),
	}
	probe, _ := k.Probe().(Probe)
	f.SetProbe(probe)
	return f
}

// SetProbe attaches p (nil detaches); the fabric registers its directed
// link count with the probe. Probes observe, never perturb.
func (f *PacketNet) SetProbe(p Probe) {
	f.probe = p
	if p != nil {
		p.FabricBuilt(KindPacket, 2*f.g.Edges())
	}
}

// Name implements Fabric.
func (f *PacketNet) Name() string { return f.p.Name + "/packet/" + f.g.Name }

// Kernel implements Fabric.
func (f *PacketNet) Kernel() *sim.Kernel { return f.k }

// NumEndpoints implements Fabric.
func (f *PacketNet) NumEndpoints() int { return len(f.eps) }

// Graph returns the underlying topology.
func (f *PacketNet) Graph() *topology.Graph { return f.g }

// Reset implements Fabric: all links idle.
func (f *PacketNet) Reset() {
	for i := range f.linkFree {
		f.linkFree[i] = 0
	}
}

// Send implements Fabric.
func (f *PacketNet) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	if src < 0 || src >= len(f.eps) || dst < 0 || dst >= len(f.eps) {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, len(f.eps)))
	}
	if bytes < 0 {
		panic("network: negative message size")
	}
	if src == dst {
		panic("network: self-send must be handled above the fabric")
	}
	edges, verts := f.g.RouteAppend(f.eps[src], f.eps[dst], f.scrEdges, f.scrVerts)
	// Directed link ids along the route.
	dlinks := append(f.scrDlinks[:0], edges...)
	for i, e := range edges {
		dir := 0
		if f.g.Edge(e).A != verts[i] {
			dir = 1
		}
		dlinks[i] = 2*e + dir
	}
	f.scrEdges, f.scrVerts, f.scrDlinks = edges, verts, dlinks

	mtu := int64(f.p.MTU)
	npkts := bytes / mtu
	if bytes%mtu != 0 || bytes == 0 {
		npkts++
	}
	// Sender CPU overhead, then packets inject back-to-back.
	now := f.k.Now()
	readyAt := now + f.p.Overhead

	var lastInject, lastDeliver sim.Time
	var busy sim.Time // link-holding time accumulated by this message
	var fastPkts int64
	remaining := bytes
	for pkt := int64(0); pkt < npkts; pkt++ {
		size := mtu
		if remaining < mtu {
			size = remaining
		}
		remaining -= size
		if size <= 0 {
			size = 64 // header-only control packet
		}
		tx := sim.Time(size) * f.p.ByteTime
		if tx < f.p.Gap {
			tx = f.p.Gap
		}
		t := readyAt
		if f.probe != nil {
			busy += tx * sim.Time(len(dlinks))
		}
		limited := true // this packet departed link-limited at every hop
		for h, dl := range dlinks {
			dep := t
			if f.linkFree[dl] >= dep {
				dep = f.linkFree[dl]
			} else {
				limited = false
			}
			f.linkFree[dl] = dep + tx
			t = dep + tx + f.p.PerHopDelay
			if h == 0 {
				lastInject = dep + tx
			}
		}
		// Wire latency is charged once (PerHopDelay covers switching).
		lastDeliver = t + f.p.Latency

		// Steady-state fast path. Once a full-MTU packet departs
		// link-limited at every hop and consecutive links along the route
		// are spaced at least tx+PerHopDelay apart, each following full
		// packet repeats the identical max-plus recurrence shifted by
		// exactly tx: dep(h) = linkFree(h), linkFree(h) += tx, and the
		// spacing is preserved — so the condition is invariant and the
		// remaining full packets can be applied in O(hops) arithmetic
		// instead of O(packets × hops). A trailing partial packet (if
		// any) still goes through the loop above. This keeps bulk
		// transfers (the alltoall sweeps) linear in route length rather
		// than packet count.
		if r := remaining / mtu; f.BatchBulk && limited && r > 0 && size == mtu {
			spaced := true
			for h := 1; h < len(dlinks); h++ {
				if f.linkFree[dlinks[h]] < f.linkFree[dlinks[h-1]]+tx+f.p.PerHopDelay {
					spaced = false
					break
				}
			}
			if spaced {
				shift := sim.Time(r) * tx
				for _, dl := range dlinks {
					f.linkFree[dl] += shift
				}
				busy += shift * sim.Time(len(dlinks))
				fastPkts += r
				lastInject = f.linkFree[dlinks[0]]
				last := len(dlinks) - 1
				lastDeliver = f.linkFree[dlinks[last]] + f.p.PerHopDelay + f.p.Latency
				remaining -= r * mtu
				pkt += r
			}
		}
	}
	if onInjected != nil {
		f.k.At(lastInject, onInjected)
	}
	if onDelivered != nil {
		f.k.At(lastDeliver+f.p.Overhead, onDelivered)
	}
	if f.probe != nil {
		f.probe.MessageInjected(KindPacket, bytes, npkts)
		f.probe.LinkBusy(KindPacket, busy)
		f.probe.MessageDelivered(KindPacket, bytes, lastDeliver+f.p.Overhead-now)
		if fastPkts > 0 {
			f.probe.FastPath(KindPacket, fastPkts)
		}
	}
}
