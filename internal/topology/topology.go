// Package topology builds and routes the interconnect graphs a cluster
// fabric is wired as: single-switch crossbars, folded-Clos/fat-trees,
// 2D/3D tori, and hypercubes. The packet-level network simulator walks
// the routes produced here, so routing is deterministic: the same
// (src, dst) pair always takes the same path, with equal-cost multipath
// choices resolved by a stable hash.
//
// A finalized Graph is a shared oracle: Dist, RouteAppend, and the
// other read paths are safe for concurrent use from any number of
// goroutines, and DisableEdge/EnableEdge may run concurrently with
// them (readers see a consistent before-or-after snapshot of the
// failure set). The regular topologies (Crossbar, Torus2D, Torus3D,
// Hypercube) record their ring geometry, and while no link is down they
// answer Dist in O(1) from coordinate arithmetic and route with no
// per-destination state at all. Fat trees, custom graphs and every
// snapshot with a link down are served from lazily built,
// once-initialized per-destination BFS trees.
//
// A tree keeps only what the search from its destination produced: each
// vertex's rank, the position at which the BFS reached it, and the first
// rank at each distance. The next hops from v, at distance d, are v's
// enabled links whose far end was reached at distance d−1, ordered by
// the far end's rank and then by edge id. That is the order in which a
// multi-parent BFS, scanning every vertex's links by ascending edge id,
// discovers them; any other router must list them in this order to keep
// the same routes. Each snapshot of the failure set, a per-edge table
// that is nil while the fabric is healthy, carries one tree slot per
// destination vertex, so finding a tree is a slice index with no lock.
//
// The ring router keeps that order without a tree. Such a BFS ranks the
// vertices at one distance by their greedy paths from its root, the
// path that at each vertex takes the first link, in edge-id order, one
// hop closer to the target, compared step by step by each link's
// position in its vertex's list: a vertex's rank is set by its
// lowest-ranked parent, then by its link's position in that parent's
// list. So v's next hops come in the order in which their greedy paths
// leave v's own, the latest first, and on rings that point is v's last
// step against the hop's direction, or, where v sits half-way round an
// even ring and never stepped that way, its first step along it.
package topology

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Vertex is a node of the interconnect graph: either an endpoint (a
// compute node's NIC) or a switch.
type Vertex struct {
	Endpoint bool
}

// Edge is an undirected link between two vertices. Edges carry no weight
// here; the network layer assigns bandwidth and latency per fabric.
type Edge struct {
	A, B int
}

// Other returns the vertex on the far side of the edge from v. It
// panics if v is on neither side: silently returning an arbitrary end
// would corrupt any path walk that asked with a stale vertex id.
func (e Edge) Other(v int) int {
	switch v {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("topology: vertex %d is not on edge %d-%d", v, e.A, e.B))
}

// halfEdge is one end's view of a link: the far end, the link's id and,
// on a graph with ring geometry, the ring direction the link steps in
// from this end (noDir for an endpoint's link).
type halfEdge struct {
	to   int
	edge int32
	dir  uint8
}

// Graph is an interconnect topology with deterministic shortest-path
// routing. Build one with the constructors in this package (Crossbar,
// FatTree, Torus2D, Torus3D, Hypercube) or assemble a custom one with
// AddVertex/AddEdge followed by Finalize.
type Graph struct {
	Name string
	// BisectionLinks is the number of links crossing the canonical
	// bisection, set analytically by each builder (0 if unknown).
	BisectionLinks int

	verts     []Vertex
	edges     []Edge
	adj       [][]halfEdge
	endpoints []int
	final     bool

	// analytic, when non-nil, is a regular topology's ring geometry:
	// Dist in O(1) and routes without trees, while no edge is disabled.
	analytic *analytic

	// routing holds the failure set and the per-destination BFS tree
	// cache as one immutable snapshot; DisableEdge/EnableEdge publish a
	// replacement snapshot instead of mutating in place, so concurrent
	// readers always see a consistent (failure set, trees) pair.
	routing atomic.Pointer[routeState]
	// mu serializes the mutators (DisableEdge/EnableEdge, Finalize).
	mu sync.Mutex
	// queue is the search queue buildTree borrows, so that a build
	// allocates nothing but its tree.
	queue atomic.Pointer[[]int32]
}

// routeState is one immutable-failure-set snapshot: the failure table is
// never written after publication, and trees holds one entry per
// destination vertex, each built exactly once behind its sync.Once.
type routeState struct {
	down  edgeSet // nil while no edge is disabled
	trees []treeEntry
}

// edgeSet marks edges by id: s[e] reports that edge e is in the set.
// Ids past its end are not in it, since failures applied before
// Finalize may precede the last AddEdge.
type edgeSet []bool

func (s edgeSet) has(e int) bool { return uint(e) < uint(len(s)) && s[e] }

type treeEntry struct {
	once sync.Once
	tree tree
}

// tree is one destination's BFS, kept as the search order itself:
// rank[v] is the position at which the search reached v (-1 if it never
// did), and level[d] is the first position at distance d, so the
// vertices at distance d hold the ranks [level[d], level[d+1]), the
// farthest ones every rank from its level start on.
type tree struct {
	rank  []int32
	level []int32
}

// dist returns v's hop count to the tree's destination, or -1 if v
// cannot reach it.
func (t *tree) dist(v int) int {
	r := t.rank[v]
	if r < 0 {
		return -1
	}
	d, found := slices.BinarySearch(t.level, r)
	if !found {
		d--
	}
	return d
}

// next appends to buf the next hops from a vertex with links adj at
// distance d ≥ 1 from the tree's destination: the links not down whose
// far end the search reached at distance d−1. Each hop is one key, the
// far end's rank in the high 32 bits and the link's index in adj in the
// low 32, and buf is kept sorted, so the hops come out ordered by rank
// and then, since adj is in edge-id order, by edge id.
func (t *tree) next(adj []halfEdge, d int, down edgeSet, buf []uint64) []uint64 {
	lo, hi := t.level[d-1], t.level[d]
	for i, he := range adj {
		r := t.rank[he.to]
		if r < lo || r >= hi || down.has(int(he.edge)) {
			continue
		}
		buf = insertKey(buf, uint64(r)<<32|uint64(i))
	}
	return buf
}

// insertKey inserts key into the ascending keys, keeping them ascending.
func insertKey(keys []uint64, key uint64) []uint64 {
	j := len(keys)
	keys = append(keys, key)
	for ; j > 0 && keys[j-1] > key; j-- {
		keys[j] = keys[j-1]
	}
	keys[j] = key
	return keys
}

// joining appends to buf the ids of the links not down between v and w,
// in edge-id order. It scans whichever of the two link lists is shorter,
// an endpoint's being one link long; both are in edge-id order.
func (g *Graph) joining(v, w int, down edgeSet, buf []uint64) []uint64 {
	if len(g.adj[w]) < len(g.adj[v]) {
		v, w = w, v
	}
	for _, he := range g.adj[v] {
		if he.to == w && !down.has(int(he.edge)) {
			buf = append(buf, uint64(he.edge))
		}
	}
	return buf
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	g := &Graph{Name: name}
	g.routing.Store(&routeState{})
	return g
}

// AddVertex appends a vertex and returns its id.
func (g *Graph) AddVertex(v Vertex) int {
	if g.final {
		panic("topology: AddVertex after Finalize")
	}
	g.verts = append(g.verts, v)
	if v.Endpoint {
		g.endpoints = append(g.endpoints, len(g.verts)-1)
	}
	return len(g.verts) - 1
}

// AddEdge appends an undirected link between vertices a and b and
// returns its edge id.
func (g *Graph) AddEdge(a, b int) int {
	if g.final {
		panic("topology: AddEdge after Finalize")
	}
	if a == b || a < 0 || b < 0 || a >= len(g.verts) || b >= len(g.verts) {
		panic(fmt.Sprintf("topology: bad edge %d-%d", a, b))
	}
	g.edges = append(g.edges, Edge{A: a, B: b})
	return len(g.edges) - 1
}

// Finalize builds adjacency structures. It must be called once after
// construction and before routing; builders call it for you.
func (g *Graph) Finalize() error {
	if g.final {
		return nil
	}
	g.adj = make([][]halfEdge, len(g.verts))
	for i, e := range g.edges {
		g.adj[e.A] = append(g.adj[e.A], halfEdge{to: e.B, edge: int32(i)})
		g.adj[e.B] = append(g.adj[e.B], halfEdge{to: e.A, edge: int32(i)})
	}
	g.final = true
	// The first snapshot with a tree slot per vertex, keeping any
	// failures applied before Finalize.
	g.mu.Lock()
	g.publish(g.routing.Load().down)
	g.mu.Unlock()
	if len(g.endpoints) == 0 {
		return fmt.Errorf("topology: graph %q has no endpoints", g.Name)
	}
	// Verify every endpoint can reach endpoint 0.
	t := g.tree(g.routing.Load(), g.endpoints[0])
	for _, ep := range g.endpoints {
		if t.rank[ep] < 0 {
			return fmt.Errorf("topology: graph %q is disconnected at endpoint %d", g.Name, ep)
		}
	}
	return nil
}

// Vertices returns the number of vertices (endpoints + switches).
func (g *Graph) Vertices() int { return len(g.verts) }

// Vertex returns vertex v's metadata.
func (g *Graph) Vertex(v int) Vertex { return g.verts[v] }

// Edges returns the number of links.
func (g *Graph) Edges() int { return len(g.edges) }

// Edge returns edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Endpoints returns the endpoint vertex ids in construction order. The
// slice is owned by the graph; callers must not modify it.
func (g *Graph) Endpoints() []int { return g.endpoints }

// NumEndpoints returns the number of endpoints.
func (g *Graph) NumEndpoints() int { return len(g.endpoints) }

// Degree returns the number of links at vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// tree returns (building if needed) the BFS tree rooted at dst under
// snapshot st's failure set. Safe for concurrent callers: the snapshot
// holds one entry per destination, and every caller that raced on the
// same destination blocks on the same sync.Once and then reads the same
// immutable tree.
func (g *Graph) tree(st *routeState, dst int) *tree {
	if !g.final {
		panic("topology: routing before Finalize")
	}
	e := &st.trees[dst]
	e.once.Do(func() { e.tree = g.buildTree(dst, st.down) })
	return &e.tree
}

// buildTree runs one breadth-first search from dst over the links not
// down, scanning each vertex's links in adjacency (edge-id) order, and
// keeps the order it reached the vertices in as ranks, with the rank at
// which each distance begins. It borrows the graph's queue; a builder
// that finds it taken by a concurrent one allocates its own.
func (g *Graph) buildTree(dst int, down edgeSet) tree {
	n := len(g.verts)
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	var levels [32]int32 // deeper searches spill to the heap
	level := levels[:1]
	q := g.queue.Swap(nil)
	if q == nil {
		q = new([]int32)
		*q = make([]int32, 0, n)
	}
	order := append((*q)[:0], int32(dst))
	rank[dst] = 0
	for i, end := 0, 1; i < len(order); i++ {
		if i == end {
			// Every vertex at the previous distance has been scanned,
			// so the ones found since are exactly the next distance.
			level = append(level, int32(i))
			end = len(order)
		}
		for _, he := range g.adj[order[i]] {
			if rank[he.to] >= 0 || down.has(int(he.edge)) {
				continue
			}
			rank[he.to] = int32(len(order))
			order = append(order, int32(he.to))
		}
	}
	*q = order
	g.queue.Store(q)
	return tree{rank: rank, level: slices.Clone(level)}
}

// RouteAppend returns the shortest path from endpoint src to endpoint
// dst as a sequence of edge ids, plus the vertex sequence (len(edges)+1
// vertices, starting at src and ending at dst). Equal-cost choices are
// resolved by a hash of (src, dst, hop), spreading distinct flows across
// the equal-cost links — the deterministic analogue of ECMP / d-mod-k
// routing in a folded Clos. It panics if src or dst is not a vertex or
// no path exists.
//
// It appends into the caller-provided slices (reset to length zero
// first), so per-message routing on a hot send path can reuse scratch
// buffers instead of allocating; nil slices allocate. It returns the
// filled slices.
//
// At each hop it lists the next hops in the order the package doc gives
// and takes cands[pathHash(src, dst, hop) % len(cands)]. A regular
// topology with no link down reads that order from its ring geometry
// (ringRoute) and builds no tree. Any other graph, or snapshot, reads
// src's distance from dst's tree once and lists each hop from it; the
// last hop lists the links joining the vertex to dst. The tree and the
// failure table come from one snapshot, so a concurrent DisableEdge
// cannot pair a new failure set with an old tree.
func (g *Graph) RouteAppend(src, dst int, edges, verts []int) ([]int, []int) {
	edges, verts = edges[:0], verts[:0]
	if src == dst {
		return edges, append(verts, src)
	}
	st := g.routing.Load()
	if g.analytic != nil && st.down == nil {
		return g.ringRoute(src, dst, edges, verts)
	}
	return g.treeRoute(st, src, dst, edges, verts)
}

// treeRoute is RouteAppend over dst's tree in snapshot st, for src ≠ dst.
func (g *Graph) treeRoute(st *routeState, src, dst int, edges, verts []int) ([]int, []int) {
	t := g.tree(st, dst)
	d := t.dist(src)
	if d < 0 {
		panic(fmt.Sprintf("topology: no route %d->%d in %q", src, dst, g.Name))
	}
	// Eight holds every candidate set of a torus, a fat tree of arity up
	// to 8 and a hypercube of up to 8 dimensions; a wider set spills to
	// the heap.
	var scratch [8]uint64
	verts = append(verts, src)
	for v, hop := src, 0; d > 0; hop, d = hop+1, d-1 {
		var he halfEdge
		if d == 1 {
			cands := g.joining(v, dst, st.down, scratch[:0])
			he = halfEdge{to: dst, edge: int32(cands[pathHash(src, dst, hop)%uint64(len(cands))])}
		} else {
			adj := g.adj[v]
			cands := t.next(adj, d, st.down, scratch[:0])
			he = adj[uint32(cands[pathHash(src, dst, hop)%uint64(len(cands))])]
		}
		v = he.to
		edges = append(edges, int(he.edge))
		verts = append(verts, v)
	}
	return edges, verts
}

// Dist returns the hop count of the shortest path between two vertices,
// or -1 if unreachable. On the regular topologies (crossbar, torus,
// hypercube) with no disabled edges it is O(1) ring arithmetic, or one
// load from the dense router-distance table; otherwise it finds src's
// distance among the levels of dst's tree.
func (g *Graph) Dist(src, dst int) int {
	if src == dst {
		return 0
	}
	st := g.routing.Load()
	if g.analytic != nil && st.down == nil {
		return g.analytic.dist(src, dst)
	}
	return g.tree(st, dst).dist(src)
}

// SumDist returns the sum of Dist(verts[i], verts[j]) over every pair
// i < j; a vertex listed twice contributes 0 for that pair. On a
// healthy regular topology small enough for the dense router-distance
// table it reads one table row per vertex, which all-pairs callers such
// as placement dilation need; otherwise it calls Dist for each pair.
func (g *Graph) SumDist(verts []int) int {
	sum := 0
	a := g.analytic
	var table []uint8
	if a != nil && g.routing.Load().down == nil {
		table = a.denseTable()
	}
	if table == nil {
		for i, u := range verts {
			for _, v := range verts[i+1:] {
				sum += g.Dist(u, v)
			}
		}
		return sum
	}
	nr, router, leg := int(a.nr), a.router, a.leg
	for i, u := range verts {
		row := table[int(router[u])*nr:][:nr]
		lu := int(leg[u])
		for _, v := range verts[i+1:] {
			if v != u {
				// Distinct vertices at one router read the zero diagonal.
				sum += lu + int(leg[v]) + int(row[router[v]])
			}
		}
	}
	return sum
}

// pathHash mixes (src, dst, hop) into a stable pseudo-random value
// (splitmix64 finalizer).
func pathHash(src, dst, hop int) uint64 {
	x := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)<<32 ^ uint64(hop)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
