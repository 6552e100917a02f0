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
	// mu serializes the mutators (DisableEdge/EnableEdge).
	mu sync.Mutex
}

// routeState is one immutable-failure-set snapshot: the disabled map is
// never written after publication, and trees are entered under mtx then
// built exactly once behind their entry's sync.Once.
type routeState struct {
	disabled map[int]bool // nil means no failures
	mtx      sync.Mutex
	trees    map[int]*treeEntry
}

type treeEntry struct {
	once sync.Once
	tree [][]halfEdge
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	g := &Graph{Name: name}
	g.routing.Store(&routeState{trees: make(map[int]*treeEntry)})
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
	if len(g.endpoints) == 0 {
		return fmt.Errorf("topology: graph %q has no endpoints", g.Name)
	}
	// Verify every endpoint can reach endpoint 0.
	tree := g.tree(g.endpoints[0])
	for _, ep := range g.endpoints {
		if ep != g.endpoints[0] && len(tree[ep]) == 0 {
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
// dst: tree[v] lists the next hops from v that lie on a shortest path to
// dst. Neighbors are explored in adjacency order, which is deterministic
// by construction. Safe for concurrent callers: the entry is created
// under the snapshot's mutex and built exactly once; every caller that
// raced on the same destination blocks on the same sync.Once and then
// reads the same immutable tree.
func (g *Graph) tree(dst int) [][]halfEdge {
	if !g.final {
		panic("topology: routing before Finalize")
	}
	st := g.routing.Load()
	st.mtx.Lock()
	e := st.trees[dst]
	if e == nil {
		e = &treeEntry{}
		st.trees[dst] = e
	}
	st.mtx.Unlock()
	e.once.Do(func() { e.tree = g.buildTree(dst, st.disabled) })
	return e.tree
}

// buildTree runs the multi-parent BFS for dst against one immutable
// failure set.
func (g *Graph) buildTree(dst int, disabled map[int]bool) [][]halfEdge {
	dist := make([]int, len(g.verts))
	for i := range dist {
		dist[i] = -1
	}
	tree := make([][]halfEdge, len(g.verts))
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, he := range g.adj[v] {
			if disabled[he.edge] {
				continue
			}
			switch {
			case dist[he.to] == -1:
				dist[he.to] = dist[v] + 1
				tree[he.to] = append(tree[he.to], halfEdge{to: v, edge: he.edge})
				queue = append(queue, he.to)
			case dist[he.to] == dist[v]+1:
				// Another equal-cost next hop toward dst.
				tree[he.to] = append(tree[he.to], halfEdge{to: v, edge: he.edge})
			}
		}
	}
	return tree
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
	tree := g.tree(dst)
	verts = append(verts, src)
	v := src
	for hop := 0; v != dst; hop++ {
		cands := tree[v]
		if len(cands) == 0 {
			panic(fmt.Sprintf("topology: no route %d->%d in %q", src, dst, g.Name))
		}
		he := cands[pathHash(src, dst, hop)%uint64(len(cands))]
		edges = append(edges, he.edge)
		verts = append(verts, he.to)
		v = he.to
	}
	return edges, verts
}

// Dist returns the hop count of the shortest path between two vertices,
// or -1 if unreachable. On the regular topologies (crossbar, torus,
// hypercube) with no disabled edges it is O(1) coordinate arithmetic;
// otherwise it walks the cached BFS tree for dst.
func (g *Graph) Dist(src, dst int) int {
	if src == dst {
		return 0
	}
	if g.analytic != nil && g.numDisabled.Load() == 0 {
		return g.analytic.dist(src, dst)
	}
	tree := g.tree(dst)
	d := 0
	v := src
	for v != dst {
		if len(tree[v]) == 0 {
			return -1
		}
		v = tree[v][0].to
		d++
	}
	return d
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
