package topology

import (
	"math/bits"
	"sync"
)

// Ring geometry. Every regular builder in this package wires its routers
// on a product of rings (a hypercube is rings of 2, a crossbar's one
// switch has none) and hangs each endpoint one hop off its router. A
// router's linear index holds its ring coordinates, the first ring
// varying fastest, so the hop count between any two vertices is
//
//	legs(src) + Σ_k ringDist(src_k, dst_k, size_k) + legs(dst)
//
// with legs = 1 for an endpoint and 0 for a router/switch. Dist uses it
// and RouteAppend routes from it (ringRoute) whenever no edges are
// disabled: a disabled edge can lengthen shortest paths, so the geometry
// is bypassed, not rebuilt, while failures are active.
type analytic struct {
	// router[v] is the linear router coordinate vertex v sits at (its
	// own index for a router, its attachment router's for an endpoint).
	router []int32
	// leg[v] is the NIC-to-router hop: 1 for endpoints, 0 for routers.
	leg []int8
	// rings lists the rings, the ring of stride 1 first. A ring of
	// width 2 or less has no wraparound link.
	rings []ring

	// Dense router-distance table, built lazily on first use when the
	// router count is small enough (≤ denseTableMax, so ≤ 1 MiB).
	// routerDist costs a divmod per ring; all-pairs loops like alloc's
	// dilation call dist millions of times, so one uint8 load from
	// a row the loop keeps hot beats recomputing the coordinates every
	// time. nr is the coordinate-space size, the product of the sizes.
	nr        int32
	tableOnce sync.Once
	table     []uint8
}

// denseTableMax caps the router-coordinate space a dense table is built
// for: 1024² entries is 1 MiB, built once per graph.
const denseTableMax = 1024

// maxRings is the most rings a geometry holds: Hypercube's dimension cap.
const maxRings = 20

// noDir is the direction of a link along no ring, an endpoint's link: a
// direction mask shifted by it reads zero.
const noDir = 0xff

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

// routerDist returns the hop count between two router coordinates.
func (a *analytic) routerDist(ra, rb int32) int {
	d := 0
	for _, r := range a.rings {
		d += ringDist(int(ra%r.n), int(rb%r.n), int(r.n))
		ra, rb = ra/r.n, rb/r.n
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
				return // leave a.table nil; keep routerDist
			}
			row[rb] = uint8(d)
		}
	}
	a.table = t
}

// attachAnalytic records a finalized regular graph's ring geometry: the
// per-vertex router coordinate (endpoints carry their attachment
// router's) and the ring sizes, the ring of stride 1 first. It labels
// both ends of every router-to-router link with the direction it steps
// in.
func (g *Graph) attachAnalytic(router []int32, size ...int) {
	leg := make([]int8, len(g.verts))
	for v, vert := range g.verts {
		if vert.Endpoint {
			leg[v] = 1
		}
	}
	a := newAnalytic(router, leg, size...)
	for v, adj := range g.adj {
		for i := range adj {
			adj[i].dir = a.direction(v, adj[i].to)
		}
	}
	g.analytic = a
}

func newAnalytic(router []int32, leg []int8, size ...int) *analytic {
	a := &analytic{router: router, leg: leg, nr: 1}
	for _, n := range size {
		r := ring{n: int32(n), fwd: int32(n / 2), back: int32(n+1) / 2, rev: 1}
		if n == 2 {
			r.back, r.rev = 2, 0
		}
		a.rings = append(a.rings, r)
		a.nr *= r.n
	}
	return a
}

// direction returns the ring direction of the link from vertex u to its
// neighbour w: 2k forward round ring k, 2k+1 backward, noDir if either
// is an endpoint. A ring of 2's one link is 2k from both ends. A hop
// round ring k moves the linear router index by its stride, or by n−1
// strides across the wraparound, and no two rings of 2 or more share
// such a move (a ring of 1 has no link).
func (a *analytic) direction(u, w int) uint8 {
	if a.leg[u] != 0 || a.leg[w] != 0 {
		return noDir
	}
	diff, stride, k := a.router[w]-a.router[u], int32(1), 0
	n := a.rings[0].n
	for n == 1 || diff != stride && diff != -stride && diff != (n-1)*stride && diff != -(n-1)*stride {
		stride *= n
		k++
		n = a.rings[k].n
	}
	if diff == stride || n == 2 || diff == -(n-1)*stride {
		return uint8(2 * k)
	}
	return uint8(2*k + 1)
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

// ring is one ring of a geometry: its size n, the offsets that a hop
// forward (1 ≤ x ≤ fwd) or backward (x ≥ back) shortens, and rev, which
// XORed into a direction reverses it: 0 on a ring of 2, whose one link is
// its own reverse, 1 elsewhere.
type ring struct {
	n, fwd, back int32
	rev          uint8
}

// offset is how far one router lies from another, ring by ring: d[k]
// steps forward round ring k, in [0, n). mask holds the directions in
// which a hop shortens it, bit 2k forward and bit 2k+1 backward, both
// where the target sits half-way round an even ring wider than 2; each
// bit is one link.
type offset struct {
	d    [maxRings]int32
	mask uint64
}

// set stores x, in (−n, 2n), as ring k's offset.
func (o *offset) set(k int, r ring, x int32) {
	if x < 0 {
		x += r.n
	} else if x >= r.n {
		x -= r.n
	}
	o.d[k] = x
	var m uint64
	if uint32(x-1) < uint32(r.fwd) {
		m = 1
	}
	if x >= r.back {
		m |= 2
	}
	o.mask = o.mask&^(3<<(2*k)) | m<<(2*k)
}

// move moves the far router one hop along dir (by = 1), or the near
// router one hop along it (by = −1).
func (o *offset) move(rings []ring, dir uint8, by int32) {
	k := int(dir >> 1)
	if dir&1 != 0 {
		by = -by
	}
	o.set(k, rings[k], o.d[k]+by)
}

// ringStep is one step of a greedy path: the direction it took, the
// router it reached, and the index of the path's previous step along the
// same direction (−1 if none).
type ringStep struct {
	to, prev int32
	dir      uint8
}

// ringPath is the greedy path from the destination's router to the
// router a route has reached: at each router it takes the first link,
// in edge-id order, that steps one hop closer to its target.
type ringPath struct {
	adj   [][]halfEdge
	rings []ring
	// last[dir] indexes the path's last step along dir (−1 if none), and
	// first[dir] its first while last[dir] is not −1.
	last, first [2 * maxRings]int32
	// ahead is how far the target lies past the path's end while the
	// path is walked on; it is zero between walks.
	ahead offset
}

// walk extends steps greedily from router w until ahead is zero.
func (p *ringPath) walk(steps []ringStep, w int) []ringStep {
	for p.ahead.mask != 0 {
		for _, he := range p.adj[w] {
			if p.ahead.mask>>he.dir&1 != 0 {
				i := int32(len(steps))
				steps = append(steps, ringStep{to: int32(he.to), prev: p.last[he.dir], dir: he.dir})
				if p.last[he.dir] < 0 {
					p.first[he.dir] = i
				}
				p.last[he.dir] = i
				// ahead.move(p.rings, he.dir, -1), inlined: this is the
				// router's innermost loop.
				k := he.dir >> 1
				p.ahead.set(int(k), p.rings[k], p.ahead.d[k]-1+2*int32(he.dir&1))
				w = he.to
				break
			}
		}
	}
	return steps
}

// truncate drops the steps past the first n, adding each to ahead.
func (p *ringPath) truncate(steps []ringStep, n int) []ringStep {
	for i := len(steps) - 1; i >= n; i-- {
		s := steps[i]
		p.last[s.dir] = s.prev
		p.ahead.move(p.rings, s.dir, 1)
	}
	return steps[:n]
}

// ringRoute is RouteAppend on a healthy regular graph, for src ≠ dst.
// An endpoint's one link is its route's first or last hop. Between
// routers it keeps the current router v's greedy path from dst's router
// rd, and lists v's next hops, one per direction that shortens the
// offset to rd, by where their greedy paths leave v's, the latest first:
// for a hop along E, at v's last step along E's reverse, else at its
// first along E. The chosen hop's path is v's, truncated there and
// walked on.
func (g *Graph) ringRoute(src, dst int, edges, verts []int) ([]int, []int) {
	a := g.analytic
	verts = append(verts, src)
	v, rd, hop := src, dst, 0
	if a.leg[src] != 0 {
		he := g.adj[src][0]
		v, hop = he.to, 1
		edges, verts = append(edges, int(he.edge)), append(verts, v)
	}
	if a.leg[dst] != 0 {
		rd = g.adj[dst][0].to
	}
	if v != rd {
		var p ringPath
		p.adj, p.rings = g.adj, a.rings
		var toDst offset // from v to rd
		cv, cd := a.router[v], a.router[rd]
		for k, r := range a.rings {
			qv, qd := cv/r.n, cd/r.n
			xv, xd := cv-qv*r.n, cd-qd*r.n
			cv, cd = qv, qd
			toDst.set(k, r, xd-xv)
			p.ahead.set(k, r, xv-xd)
			p.last[2*k], p.last[2*k+1] = -1, -1
		}
		// Thirty-two steps hold every path of a torus up to 21×21×21
		// and of every hypercube; a longer path spills to the heap.
		var buf [32]ringStep
		steps := p.walk(buf[:0], rd)
		var scratch [8]uint64 // as in treeRoute
		for v != rd {
			m := len(steps)
			cands := scratch[:0]
			for mask := toDst.mask; mask != 0; mask &= mask - 1 {
				e := uint8(bits.TrailingZeros64(mask))
				j := p.last[e^a.rings[e>>1].rev]
				if j < 0 {
					j = p.first[e]
				}
				cands = insertKey(cands, uint64(m-1-int(j))<<8|uint64(e))
			}
			c := cands[0]
			if len(cands) > 1 {
				c = cands[pathHash(src, dst, hop)%uint64(len(cands))]
			}
			// The hop's path leaves v's at step j: keep the steps before
			// it and walk on to the hop's far end. The first candidate's
			// path is v's less its last step.
			e, j := uint8(c), m-1-int(c>>8)
			if j == m-1 {
				p.last[steps[j].dir] = steps[j].prev
				steps = steps[:j]
			} else {
				steps = p.truncate(steps, j)
				p.ahead.move(a.rings, e, 1)
				from := rd
				if j > 0 {
					from = int(steps[j-1].to)
				}
				steps = p.walk(steps, from)
			}
			toDst.move(a.rings, e, -1)
			var he halfEdge
			for _, he = range g.adj[v] {
				if he.dir == e {
					break
				}
			}
			v, hop = he.to, hop+1
			edges, verts = append(edges, int(he.edge)), append(verts, v)
		}
	}
	if a.leg[dst] != 0 {
		edges, verts = append(edges, int(g.adj[dst][0].edge)), append(verts, dst)
	}
	return edges, verts
}
