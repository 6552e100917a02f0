// Package topology builds and routes the interconnect graphs a cluster
// fabric is wired as: single-switch crossbars, folded-Clos/fat-trees,
// 2D/3D tori, and hypercubes. The packet-level network simulator walks
// the routes produced here, so routing is deterministic: the same
// (src, dst) pair always takes the same path, with equal-cost multipath
// choices resolved by a stable hash.
//
// A finalized Graph is a shared oracle: Dist, Route, Reachable, and the
// other read paths are safe for concurrent use from any number of
// goroutines, and DisableEdge/EnableEdge may run concurrently with
// them (readers see a consistent before-or-after snapshot of the
// failure set). Regular topologies (Crossbar, Torus2D, Torus3D,
// Hypercube) answer Dist in O(1) from coordinate arithmetic while the
// failure set is empty; everything else is served from lazily built,
// once-initialized per-destination BFS trees.
//
// A tree is a flat next-hop table: a per-vertex offset into one slice of
// next-hop edge ids, both int32, listed in the order the BFS reached
// them. Each failure-set snapshot carries one tree slot per destination
// vertex, so a lookup is a slice index with no lock, and while the
// fabric is healthy the builder never consults the failure set.
package topology

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Vertex is a node of the interconnect graph: either an endpoint (a
// compute node's NIC) or a switch.
type Vertex struct {
	Endpoint bool
	Label    string
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

type halfEdge struct {
	to   int
	edge int
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

	// analytic, when non-nil, answers Dist in O(1) for the regular
	// topologies; only valid while no edges are disabled.
	analytic *analytic

	// routing holds the failure set and the per-destination BFS tree
	// cache as one immutable snapshot; DisableEdge/EnableEdge publish a
	// replacement snapshot instead of mutating in place, so concurrent
	// readers always see a consistent (disabled set, trees) pair.
	routing atomic.Pointer[routeState]
	// numDisabled mirrors len(routing.disabled) for the lock-free
	// analytic fast path.
	numDisabled atomic.Int64
	// mu serializes the mutators (DisableEdge/EnableEdge, Finalize).
	mu sync.Mutex
}

// routeState is one immutable-failure-set snapshot: the disabled map is
// never written after publication, and trees holds one entry per
// destination vertex, each built exactly once behind its sync.Once.
type routeState struct {
	disabled map[int]bool // nil means no failures
	trees    []treeEntry
}

type treeEntry struct {
	once sync.Once
	tree tree
}

// tree is one destination's multi-parent BFS tree, flattened: the next
// hops from v toward the destination are the edge ids
// hops[off[v]:off[v+1]], in the order the BFS discovered them.
type tree struct {
	off  []int32
	hops []int32
}

// next returns the edge ids leaving v on a shortest path to the tree's
// destination; empty at the destination and where it is unreachable.
func (t *tree) next(v int) []int32 { return t.hops[t.off[v]:t.off[v+1]] }

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
		g.adj[e.A] = append(g.adj[e.A], halfEdge{to: e.B, edge: i})
		g.adj[e.B] = append(g.adj[e.B], halfEdge{to: e.A, edge: i})
	}
	g.final = true
	// The first snapshot with a tree slot per vertex, keeping any
	// failures applied before Finalize.
	g.mu.Lock()
	g.publish(g.routing.Load().disabled)
	g.mu.Unlock()
	if len(g.endpoints) == 0 {
		return fmt.Errorf("topology: graph %q has no endpoints", g.Name)
	}
	// Verify every endpoint can reach endpoint 0.
	t := g.tree(g.endpoints[0])
	for _, ep := range g.endpoints {
		if ep != g.endpoints[0] && len(t.next(ep)) == 0 {
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

// tree returns (building if needed) the multi-parent BFS tree rooted at
// dst. Neighbors are explored in adjacency order, which is deterministic
// by construction. Safe for concurrent callers: the snapshot holds one
// entry per destination, and every caller that raced on the same
// destination blocks on the same sync.Once and then reads the same
// immutable tree.
func (g *Graph) tree(dst int) *tree {
	if !g.final {
		panic("topology: routing before Finalize")
	}
	st := g.routing.Load()
	e := &st.trees[dst]
	e.once.Do(func() { e.tree = g.buildTree(dst, st.disabled) })
	return &e.tree
}

// buildTree runs the multi-parent BFS for dst against one immutable
// failure set. The first pass records the BFS order and each vertex's
// distance and next-hop count; the second walks the same order again
// and fills the hops, so each vertex lists its next hops in the order
// the search reached them, parallel links included. A healthy fabric
// never consults the failure set.
func (g *Graph) buildTree(dst int, disabled map[int]bool) tree {
	n := len(g.verts)
	failures := len(disabled) > 0
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	off := make([]int32, n+1)
	order := make([]int32, 1, n)
	order[0] = int32(dst)
	dist[dst] = 0
	for i := 0; i < len(order); i++ {
		v := order[i]
		d := dist[v] + 1
		for _, he := range g.adj[v] {
			if failures && disabled[he.edge] {
				continue
			}
			switch dist[he.to] {
			case -1:
				dist[he.to] = d
				order = append(order, int32(he.to))
				off[he.to+1]++
			case d:
				// Another equal-cost next hop toward dst.
				off[he.to+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Fill with off[v] as v's cursor. It stops at v's end, which is
	// v+1's start, so one shift afterwards restores the offsets.
	hops := make([]int32, off[n])
	for _, v := range order {
		d := dist[v] + 1
		for _, he := range g.adj[v] {
			if failures && disabled[he.edge] {
				continue
			}
			if dist[he.to] == d {
				hops[off[he.to]] = int32(he.edge)
				off[he.to]++
			}
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return tree{off: off, hops: hops}
}

// Route returns the shortest path from endpoint src to endpoint dst as a
// sequence of edge ids, plus the vertex sequence (len(edges)+1 vertices,
// starting at src and ending at dst). Equal-cost choices are resolved by
// a hash of (src, dst, hop), spreading distinct flows across the
// equal-cost links — the deterministic analogue of ECMP / d-mod-k
// routing in a folded Clos. Route panics if src or dst is not a vertex
// or no path exists.
func (g *Graph) Route(src, dst int) (edges []int, verts []int) {
	return g.RouteAppend(src, dst, nil, nil)
}

// RouteAppend is Route appending into caller-provided slices (reset to
// length zero first), so per-message routing on a hot send path can reuse
// scratch buffers instead of allocating. It returns the filled slices.
func (g *Graph) RouteAppend(src, dst int, edges, verts []int) ([]int, []int) {
	edges, verts = edges[:0], verts[:0]
	if src == dst {
		return edges, append(verts, src)
	}
	t := g.tree(dst)
	verts = append(verts, src)
	v := src
	for hop := 0; v != dst; hop++ {
		cands := t.next(v)
		if len(cands) == 0 {
			panic(fmt.Sprintf("topology: no route %d->%d in %q", src, dst, g.Name))
		}
		e := int(cands[pathHash(src, dst, hop)%uint64(len(cands))])
		v = g.edges[e].Other(v)
		edges = append(edges, e)
		verts = append(verts, v)
	}
	return edges, verts
}

// Dist returns the hop count of the shortest path between two vertices,
// or -1 if unreachable. On the regular topologies (crossbar, torus,
// hypercube) with no disabled edges it is O(1) coordinate arithmetic;
// otherwise it walks the first next hops of the cached BFS tree for dst.
func (g *Graph) Dist(src, dst int) int {
	if src == dst {
		return 0
	}
	if g.analytic != nil && g.numDisabled.Load() == 0 {
		return g.analytic.dist(src, dst)
	}
	t := g.tree(dst)
	d := 0
	for v := src; v != dst; d++ {
		cands := t.next(v)
		if len(cands) == 0 {
			return -1
		}
		v = g.edges[cands[0]].Other(v)
	}
	return d
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
	if a != nil && g.numDisabled.Load() == 0 {
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
