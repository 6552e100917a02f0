package network

import (
	"math"
	"math/rand"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// naivePacketSend is the pre-fast-path reference: the plain
// O(packets × hops) per-packet loop, kept here verbatim so the
// steady-state extrapolation in PacketNet.Send stays pinned to it.
func naivePacketSend(p Preset, g *topology.Graph, linkFree []sim.Time, now sim.Time, src, dst int, bytes int64) (lastInject, lastDeliver sim.Time, hops int64) {
	eps := g.Endpoints()
	edges, verts := g.RouteAppend(eps[src], eps[dst], nil, nil)
	dlinks := make([]int, len(edges))
	for i, e := range edges {
		dir := 0
		if g.Edge(e).A != verts[i] {
			dir = 1
		}
		dlinks[i] = 2*e + dir
	}
	mtu := int64(p.MTU)
	npkts := bytes / mtu
	if bytes%mtu != 0 || bytes == 0 {
		npkts++
	}
	readyAt := now + p.Overhead
	remaining := bytes
	for pkt := int64(0); pkt < npkts; pkt++ {
		size := mtu
		if remaining < mtu {
			size = remaining
		}
		remaining -= size
		if size <= 0 {
			size = 64
		}
		tx := sim.Time(size) * p.ByteTime
		if tx < p.Gap {
			tx = p.Gap
		}
		t := readyAt
		for h, dl := range dlinks {
			dep := t
			if linkFree[dl] > dep {
				dep = linkFree[dl]
			}
			linkFree[dl] = dep + tx
			t = dep + tx + p.PerHopDelay
			hops++
			if h == 0 {
				lastInject = dep + tx
			}
		}
		lastDeliver = t + p.Latency
	}
	return lastInject, lastDeliver, hops
}

// TestPacketFastPathMatchesNaive drives the same randomized message
// sequences through PacketNet.Send and the reference loop and demands
// agreement on every completion time, every link-busy horizon, and the
// hop counter. The fast path extrapolates float arithmetic
// (one multiply instead of repeated adds), so agreement is to 1e-9
// relative, not bit-exact.
func TestPacketFastPathMatchesNaive(t *testing.T) {
	graphs := []*topology.Graph{
		topology.FatTree(4, 3),
		topology.Crossbar(16),
		topology.Torus2D(4, 4),
	}
	presets := []Preset{InfiniBand4X(), Myrinet2000(), FastEthernet()}
	rng := rand.New(rand.NewSource(11))
	approx := func(a, b sim.Time) bool {
		d := math.Abs(float64(a - b))
		return d <= 1e-9*math.Max(1, math.Max(math.Abs(float64(a)), math.Abs(float64(b))))
	}
	for _, g := range graphs {
		for _, p := range presets {
			k := sim.New(1)
			fast := NewPacketNet(k, p, g)
			fast.BatchBulk = true
			ref := make([]sim.Time, 2*g.Edges())
			n := g.NumEndpoints()
			for msgi := 0; msgi < 300; msgi++ {
				src := rng.Intn(n)
				dst := rng.Intn(n)
				if dst == src {
					dst = (src + 1) % n
				}
				// Mix tiny, MTU-straddling, and bulk messages: the bulk ones
				// are the steady-state fast path's territory.
				var bytes int64
				switch rng.Intn(4) {
				case 0:
					bytes = int64(rng.Intn(3 * p.MTU))
				case 1:
					bytes = int64(p.MTU) * int64(1+rng.Intn(4))
				default:
					bytes = int64(rng.Intn(4 << 20))
				}
				var fi, fd sim.Time
				fast.Send(src, dst, bytes, func() { fi = k.Now() }, func() { fd = k.Now() - p.Overhead })
				ni, nd, _ := naivePacketSend(p, g, ref, k.Now(), src, dst, bytes)
				k.Run()
				if !approx(fi, ni) || !approx(fd, nd) {
					t.Fatalf("%s/%s msg %d (%d->%d, %d bytes): fast inject/deliver %v/%v, naive %v/%v",
						g.Name, p.Name, msgi, src, dst, bytes, fi, fd, ni, nd)
				}
				for dl := range ref {
					if !approx(fast.linkFree[dl], ref[dl]) {
						t.Fatalf("%s/%s msg %d: linkFree[%d] fast %v naive %v",
							g.Name, p.Name, msgi, dl, fast.linkFree[dl], ref[dl])
					}
				}
			}
		}
	}
}
