package network

import (
	"fmt"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// WormholeNet is the highest-fidelity fabric model: event-driven
// per-hop packet forwarding with credit-based flow control, as in
// InfiniBand and the proprietary 2002 fabrics. Each directed link has a
// finite downstream input buffer (BufferPackets); a packet may start
// crossing a link only when the link is idle AND a buffer slot is free
// on the far side. When a destination is oversubscribed, its buffers
// fill, upstream packets stall holding *their* buffers, and congestion
// spreads backwards through the switches — the congestion-tree /
// head-of-line-blocking behavior the era's fabric papers fought, which
// the reservation-based PacketNet cannot express.
//
// Compared to PacketNet, WormholeNet serializes packets in true arrival
// order at every link and lets unrelated traffic be delayed by a
// saturated hotspot it merely shares a switch with.
//
// Caution: like real wormhole fabrics without virtual channels, cyclic
// topologies (tori, hypercubes) can deadlock under heavy load — buffer
// cycles are a physical phenomenon this model reproduces faithfully.
// Use it on up/down-routed topologies (crossbar, fat tree), as the
// 2002 fabrics did.
//
// Allocation: messages and packets are pooled, and no event allocates
// a closure. Each directed link binds its three per-hop handlers once
// (wire free, packet arrived downstream, packet landed at its
// destination), and the fabric binds one for a message's start. A
// handler takes its packet or message from the head of a FIFO. That is
// exact because each FIFO's events fire in the order they were pushed:
//
//   - a wire carries one packet at a time, and Validate requires
//     ByteTime > 0, so every crossing takes tx + PerHopDelay with
//     tx > 0: packets reach the far side of a link, and land Latency
//     later, in the order they started;
//   - every message starts Overhead after its Send, in Send order;
//   - events due at equal times fire in the order they were scheduled.
type WormholeNet struct {
	k *sim.Kernel
	p Preset
	g *topology.Graph
	// BufferPackets is the input-buffer depth per directed link.
	bufferPackets int
	eps           []int
	links         []wlink
	probe         Probe
	// Stalls counts packet-start attempts deferred for want of a credit
	// — the congestion metric.
	Stalls int64

	starting fifo[*wmsg] // messages waiting out the sender overhead
	onStart  func()      // bound start handler
	freeMsgs []*wmsg
	freePkts *wpacket // linked through next, so the pool never regrows a slice
	// Per-send routing scratch.
	scrEdges []int
	scrVerts []int
}

// wlink is one directed link's flow-control state and its bound event
// handlers.
type wlink struct {
	f       *WormholeNet
	id      int
	busy    bool
	credits int // free slots in the downstream input buffer

	waiting fifo[*wpacket] // queued to cross this link
	transit fifo[*wpacket] // on the wire or in the far switch, oldest first
	landing fifo[*wpacket] // past their last hop, waiting out Latency

	onWireFree, onArrived, onLanded func()
}

// wmsg is one message in flight: its route and the packets still to
// land.
type wmsg struct {
	dlinks                  []int // directed link ids along the route
	bytes                   int64
	npkts                   int64
	pending                 int // packets not yet landed
	sendAt                  sim.Time
	onInjected, onDelivered func()
}

// wpacket is one packet in flight.
type wpacket struct {
	msg     *wmsg
	size    int64
	hop     int      // next link index to traverse
	inbound int      // directed link whose buffer slot we occupy (-1 at source)
	last    bool     // last packet of its message: clearing the first link completes the send locally
	next    *wpacket // next free packet while pooled
}

// NewWormholeNet builds a wormhole fabric over g with the preset's
// timing and the given per-link input-buffer depth (packets). A depth
// of 0 uses the conventional 4.
func NewWormholeNet(k *sim.Kernel, p Preset, g *topology.Graph, bufferPackets int) *WormholeNet {
	if bufferPackets <= 0 {
		bufferPackets = 4
	}
	f := &WormholeNet{
		k: k, p: p, g: g,
		bufferPackets: bufferPackets,
		eps:           g.Endpoints(),
		links:         make([]wlink, 2*g.Edges()),
	}
	f.onStart = f.start
	for i := range f.links {
		l := &f.links[i]
		l.f, l.id, l.credits = f, i, bufferPackets
		l.onWireFree, l.onArrived, l.onLanded = l.wireFree, l.arrived, l.landed
	}
	probe, _ := k.Probe().(Probe)
	f.SetProbe(probe)
	return f
}

// SetProbe attaches p (nil detaches); the fabric registers its directed
// link count with the probe. Probes observe, never perturb.
func (f *WormholeNet) SetProbe(p Probe) {
	f.probe = p
	if p != nil {
		p.FabricBuilt(KindWormhole, 2*f.g.Edges())
	}
}

// Name implements Fabric.
func (f *WormholeNet) Name() string { return f.p.Name + "/wormhole/" + f.g.Name }

// Kernel implements Fabric.
func (f *WormholeNet) Kernel() *sim.Kernel { return f.k }

// NumEndpoints implements Fabric.
func (f *WormholeNet) NumEndpoints() int { return len(f.eps) }

// Reset implements Fabric: every link idle with a full credit pool and
// empty queues, Stalls zeroed. Call only after a drained run; a packet
// still in flight would resume against the refilled credits.
func (f *WormholeNet) Reset() {
	f.Stalls = 0
	f.starting.reset()
	for i := range f.links {
		l := &f.links[i]
		l.busy = false
		l.credits = f.bufferPackets
		l.waiting.reset()
		l.transit.reset()
		l.landing.reset()
	}
}

// Send implements Fabric.
func (f *WormholeNet) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	if src < 0 || src >= len(f.eps) || dst < 0 || dst >= len(f.eps) {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, len(f.eps)))
	}
	if bytes < 0 {
		panic("network: negative message size")
	}
	if src == dst {
		panic("network: self-send must be handled above the fabric")
	}
	m := f.newMsg()
	edges, verts := f.g.RouteAppend(f.eps[src], f.eps[dst], f.scrEdges, f.scrVerts)
	f.scrEdges, f.scrVerts = edges, verts
	for i, e := range edges {
		dir := 0
		if f.g.Edge(e).A != verts[i] {
			dir = 1
		}
		m.dlinks = append(m.dlinks, 2*e+dir)
	}
	mtu := int64(f.p.MTU)
	m.npkts = bytes / mtu
	if bytes%mtu != 0 || bytes == 0 {
		m.npkts++
	}
	m.bytes, m.pending, m.sendAt = bytes, int(m.npkts), f.k.Now()
	m.onInjected, m.onDelivered = onInjected, onDelivered
	if f.probe != nil {
		f.probe.MessageInjected(KindWormhole, bytes, m.npkts)
	}
	f.starting.push(m)
	f.k.After(f.p.Overhead, f.onStart)
}

// start injects the packets of the oldest message whose sender overhead
// has elapsed.
func (f *WormholeNet) start() {
	m := f.starting.pop()
	mtu := int64(f.p.MTU)
	remaining := m.bytes
	for i := int64(0); i < m.npkts; i++ {
		size := mtu
		if remaining < mtu {
			size = remaining
		}
		remaining -= size
		if size <= 0 {
			size = 64
		}
		pkt := f.newPacket()
		*pkt = wpacket{msg: m, size: size, inbound: -1, last: i == m.npkts-1}
		f.enqueue(pkt)
	}
}

// enqueue places the packet on its next link's wait queue and pokes the
// link.
func (f *WormholeNet) enqueue(pkt *wpacket) {
	l := &f.links[pkt.msg.dlinks[pkt.hop]]
	l.waiting.push(pkt)
	l.tryStart()
}

// tryStart launches the head packet of the link if the link is idle and
// a downstream buffer slot is available.
func (l *wlink) tryStart() {
	if l.busy || l.waiting.n == 0 {
		return
	}
	f := l.f
	if l.credits <= 0 {
		f.Stalls++
		return // backpressure: wait for a credit return
	}
	pkt := l.waiting.pop()
	l.credits--
	l.busy = true
	tx := sim.Time(pkt.size) * f.p.ByteTime
	if tx < f.p.Gap {
		tx = f.p.Gap
	}
	if f.probe != nil {
		f.probe.LinkBusy(KindWormhole, tx)
	}
	l.transit.push(pkt)
	f.k.After(tx, l.onWireFree)
	f.k.After(tx+f.p.PerHopDelay, l.onArrived)
}

// wireFree frees the wire for the next packet.
func (l *wlink) wireFree() {
	l.busy = false
	l.tryStart()
}

// arrived handles the oldest packet in transit having fully arrived
// downstream: release the slot it held on the previous hop's buffer,
// then continue or deliver.
func (l *wlink) arrived() {
	f := l.f
	pkt := l.transit.pop()
	m := pkt.msg
	if pkt.last && pkt.hop == 0 && m.onInjected != nil {
		m.onInjected() // local completion: the last packet cleared the first link
	}
	if pkt.inbound >= 0 {
		in := &f.links[pkt.inbound]
		in.credits++
		in.tryStart()
	}
	pkt.inbound = l.id
	pkt.hop++
	if pkt.hop >= len(m.dlinks) {
		// Arrived at the destination endpoint: free the final buffer
		// and land after the wire latency.
		l.credits++
		l.tryStart()
		l.landing.push(pkt)
		f.k.After(f.p.Latency, l.onLanded)
		return
	}
	f.enqueue(pkt)
}

// landed retires the oldest landing packet; the message's last one
// delivers it.
func (l *wlink) landed() {
	f := l.f
	pkt := l.landing.pop()
	m := pkt.msg
	*pkt = wpacket{next: f.freePkts}
	f.freePkts = pkt
	if m.pending--; m.pending > 0 {
		return
	}
	// The receiver CPU overhead is still ahead; charge it analytically
	// so the latency matches what the caller's onDelivered handler will
	// observe.
	if f.probe != nil {
		f.probe.MessageDelivered(KindWormhole, m.bytes, f.k.Now()+f.p.Overhead-m.sendAt)
	}
	if m.onDelivered != nil {
		f.k.After(f.p.Overhead, m.onDelivered)
	}
	m.dlinks = m.dlinks[:0]
	m.onInjected, m.onDelivered = nil, nil
	f.freeMsgs = append(f.freeMsgs, m)
}

func (f *WormholeNet) newMsg() *wmsg {
	if n := len(f.freeMsgs); n > 0 {
		m := f.freeMsgs[n-1]
		f.freeMsgs = f.freeMsgs[:n-1]
		return m
	}
	return &wmsg{}
}

func (f *WormholeNet) newPacket() *wpacket {
	if pkt := f.freePkts; pkt != nil {
		f.freePkts = pkt.next
		return pkt
	}
	return &wpacket{}
}

// fifo is a ring-buffer queue that reuses its storage: it grows to the
// most items it has held at once and never shrinks.
type fifo[T any] struct {
	ring []T // length zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(8, 2*len(q.ring)))
		n := copy(grown, q.ring[q.head:])
		copy(grown[n:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// reset empties the queue, keeping its storage.
func (q *fifo[T]) reset() {
	clear(q.ring)
	q.head, q.n = 0, 0
}
