package topology

import (
	"math/bits"
	"sync"
)

// Closed-form shortest-path distances. Every regular builder in this
// package wires the same local shape — routers in a known coordinate
// system, each endpoint hanging one hop off its router — so the hop
// count between any two vertices is
//
//	legs(src) + routerDist(router(src), router(dst)) + legs(dst)
//
// with legs = 1 for an endpoint and 0 for a router/switch. The builders
// attach an analytic oracle carrying the per-vertex router index plus a
// kind-specific routerDist; Dist uses it instead of BFS whenever no
// edges are disabled (a disabled edge can lengthen shortest paths, so
// the oracle is bypassed — not rebuilt — while failures are active).
type analytic struct {
	// router[v] is the linear router coordinate vertex v sits at (its
	// own index for a router, its attachment router's for an endpoint).
	router []int32
	// leg[v] is the NIC-to-router hop: 1 for endpoints, 0 for routers.
	leg []int8
	// routerDist returns the hop count between two router coordinates.
	routerDist func(a, b int32) int

	// Dense router-distance table, built lazily on first use when the
	// router count is small enough (≤ denseTableMax, so ≤ 1 MiB). The
	// closed-form routerDist closures cost a handful of divmods per call;
	// all-pairs loops like alloc.Dilation call dist millions of times, so
	// one uint8 load from a row the loop keeps hot beats recomputing the
	// coordinates every time. nr is the coordinate-space size (max+1).
	nr        int32
	tableOnce sync.Once
	table     []uint8
}

// denseTableMax caps the router-coordinate space a dense table is built
// for: 1024² entries is 1 MiB, built once per graph.
const denseTableMax = 1024

func (a *analytic) dist(src, dst int) int {
	d := int(a.leg[src]) + int(a.leg[dst])
	if ra, rb := a.router[src], a.router[dst]; ra != rb {
		if t := a.denseTable(); t != nil {
			d += int(t[int(ra)*int(a.nr)+int(rb)])
		} else {
			d += a.routerDist(ra, rb)
		}
	}
	return d
}

// denseTable returns the dense router-distance table, building it on
// first use. Dist is called concurrently through the shared Graph oracle,
// so the build is guarded by a Once (its fast path is one atomic load).
func (a *analytic) denseTable() []uint8 {
	a.tableOnce.Do(a.buildTable)
	return a.table
}

func (a *analytic) buildTable() {
	nr := int(a.nr)
	if nr < 2 || nr > denseTableMax {
		return
	}
	t := make([]uint8, nr*nr)
	for ra := 0; ra < nr; ra++ {
		row := t[ra*nr : (ra+1)*nr]
		for rb := 0; rb < nr; rb++ {
			if rb == ra {
				continue // diagonal never read: dist guards ra != rb
			}
			d := a.routerDist(int32(ra), int32(rb))
			if d > 255 {
				return // leave a.table nil; keep the closure
			}
			row[rb] = uint8(d)
		}
	}
	a.table = t
}

// attachAnalytic records the oracle; builders call it after adding all
// vertices, passing the per-vertex router coordinate (endpoints carry
// their attachment router's coordinate).
func (g *Graph) attachAnalytic(router []int32, routerDist func(a, b int32) int) {
	leg := make([]int8, len(g.verts))
	for v, vert := range g.verts {
		if vert.Endpoint {
			leg[v] = 1
		}
	}
	var nr int32
	for _, r := range router {
		if r+1 > nr {
			nr = r + 1
		}
	}
	g.analytic = &analytic{router: router, leg: leg, routerDist: routerDist, nr: nr}
}

// ringDist is the hop count along one torus dimension of width w:
// wraparound (only wired when w > 2, matching the builders) halves the
// worst case.
func ringDist(a, b, w int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w > 2 && w-d < d {
		d = w - d
	}
	return d
}

// crossbarDist: every router pair is the same single switch, so the
// oracle never sees ra != rb with distinct routers; distance is legs
// only. Kept as a named function for the builder's readability.
func crossbarDist(a, b int32) int {
	if a != b {
		panic("topology: crossbar has a single switch")
	}
	return 0
}

// torus2dDist returns the routerDist for a w×h torus.
func torus2dDist(w, h int) func(a, b int32) int {
	return func(a, b int32) int {
		ax, ay := int(a)%w, int(a)/w
		bx, by := int(b)%w, int(b)/w
		return ringDist(ax, bx, w) + ringDist(ay, by, h)
	}
}

// torus3dDist returns the routerDist for an x×y×z torus.
func torus3dDist(x, y, z int) func(a, b int32) int {
	return func(a, b int32) int {
		ai, aj, ak := int(a)%x, (int(a)/x)%y, int(a)/(x*y)
		bi, bj, bk := int(b)%x, (int(b)/x)%y, int(b)/(x*y)
		return ringDist(ai, bi, x) + ringDist(aj, bj, y) + ringDist(ak, bk, z)
	}
}

// hypercubeDist is the Hamming distance between router indices.
func hypercubeDist(a, b int32) int {
	return bits.OnesCount32(uint32(a ^ b))
}
