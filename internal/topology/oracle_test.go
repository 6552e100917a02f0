package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// referenceNextHops is an independent multi-parent BFS toward dst,
// deliberately not sharing code with Graph.buildTree, used to pin the
// analytic oracle and the order of every candidate list RouteAppend
// hashes over. next[v] lists the edges that leave v on a shortest path
// to dst, in the order a breadth-first search from dst discovers them
// when it scans each vertex's enabled links by ascending edge id;
// dist[v] is v's hop count to dst, or -1 when v cannot reach it.
func referenceNextHops(g *Graph, dst int, disabled map[int]bool) (next [][]int, dist []int) {
	type link struct{ to, edge int }
	adj := make([][]link, g.Vertices())
	for e := 0; e < g.Edges(); e++ {
		if disabled[e] {
			continue
		}
		ed := g.Edge(e)
		adj[ed.A] = append(adj[ed.A], link{ed.B, e})
		adj[ed.B] = append(adj[ed.B], link{ed.A, e})
	}
	dist = make([]int, g.Vertices())
	for i := range dist {
		dist[i] = -1
	}
	next = make([][]int, g.Vertices())
	dist[dst] = 0
	queue := []int{dst}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, l := range adj[v] {
			if dist[l.to] == -1 {
				dist[l.to] = dist[v] + 1
				queue = append(queue, l.to)
			}
			if dist[l.to] == dist[v]+1 {
				next[l.to] = append(next[l.to], l.edge)
			}
		}
	}
	return next, dist
}

// nextHops returns the edge ids g's cached tree for dst offers at v, in
// candidate order, as treeRoute lists them: none at dst and where dst is
// unreachable.
func nextHops(g *Graph, v, dst int) []int {
	st := g.routing.Load()
	t := g.tree(st, dst)
	d := t.dist(v)
	if d <= 0 {
		return nil
	}
	var out []int
	if d == 1 {
		for _, e := range g.joining(v, dst, st.down, nil) {
			out = append(out, int(e))
		}
		return out
	}
	for _, c := range t.next(g.adj[v], d, st.down, nil) {
		out = append(out, int(g.adj[v][uint32(c)].edge))
	}
	return out
}

// referenceRoute walks from src to dst over next, referenceNextHops'
// lists toward dst, hashing over each list as RouteAppend does.
func referenceRoute(g *Graph, next [][]int, src, dst int) (edges, verts []int) {
	verts = []int{src}
	for u, hop := src, 0; u != dst; hop++ {
		cands := next[u]
		e := cands[pathHash(src, dst, hop)%uint64(len(cands))]
		u = g.Edge(e).Other(u)
		edges, verts = append(edges, e), append(verts, u)
	}
	return edges, verts
}

// checkTreesMatchReference compares, for every (vertex, destination)
// pair of g, the candidate list, Dist and RouteAppend against
// referenceNextHops under g's current failure set. A destination's lists
// are all compared before anything walks them, so a wrong hop fails
// instead of sending a walk round a cycle.
func checkTreesMatchReference(t *testing.T, g *Graph) {
	t.Helper()
	disabled := map[int]bool{}
	for e, d := range g.routing.Load().down {
		if d {
			disabled[e] = true
		}
	}
	for dst := 0; dst < g.Vertices(); dst++ {
		next, dist := referenceNextHops(g, dst, disabled)
		for v := 0; v < g.Vertices(); v++ {
			if got := nextHops(g, v, dst); !slices.Equal(got, next[v]) {
				t.Fatalf("%s: next hops %d->%d = %v, reference %v", g.Name, v, dst, got, next[v])
			}
		}
		for v := 0; v < g.Vertices(); v++ {
			if got := g.Dist(v, dst); got != dist[v] {
				t.Fatalf("%s: Dist(%d, %d) = %d, reference %d", g.Name, v, dst, got, dist[v])
			}
			if v == dst || dist[v] < 0 {
				continue
			}
			wantE, wantV := referenceRoute(g, next, v, dst)
			gotE, gotV := g.RouteAppend(v, dst, nil, nil)
			if !slices.Equal(gotE, wantE) || !slices.Equal(gotV, wantV) {
				t.Fatalf("%s: RouteAppend(%d, %d) = %v via %v, reference %v via %v", g.Name, v, dst, gotE, gotV, wantE, wantV)
			}
		}
	}
}

// TestTreesMatchReference pins every candidate list, in order, on small
// instances of every builder, healthy and with core links failed, and on
// two hand-built graphs, one with parallel links and one with a vertex
// holding 12 equal-cost hops: RouteAppend picks cands[pathHash % len],
// so any reordering moves packets. Torus3D(4,4,4) ties in every
// dimension, so a router there holds up to 6 equal-cost hops, and the
// ring Torus2D(1,70) is 37 hops across, deeper than the distances
// buildTree keeps on its stack.
func TestTreesMatchReference(t *testing.T) {
	builders := []func() *Graph{
		func() *Graph { return Crossbar(5) },
		func() *Graph { return FatTree(2, 3) },
		func() *Graph { return FatTree(4, 2) },
		func() *Graph { return Torus2D(2, 5) },
		func() *Graph { return Torus2D(4, 3) },
		func() *Graph { return Torus2D(1, 70) },
		func() *Graph { return Torus3D(2, 3, 4) },
		func() *Graph { return Torus3D(3, 3, 3) },
		func() *Graph { return Torus3D(4, 4, 4) },
		func() *Graph { return Hypercube(4) },
		parallelLinks,
		twelveWay,
	}
	for _, build := range builders {
		g := build()
		t.Run(g.Name, func(t *testing.T) { checkTreesMatchReference(t, g) })
		g = build()
		failed := g.FailCoreLinks(3)
		t.Run(fmt.Sprintf("%s/failed-%d", g.Name, failed), func(t *testing.T) {
			checkTreesMatchReference(t, g)
		})
	}
}

// parallelLinks is a small multigraph: doubled NIC and trunk links, so
// some vertices hold two equal-cost hops to the same neighbor.
func parallelLinks() *Graph {
	g := NewGraph("parallel-links")
	for i := 0; i < 3; i++ {
		g.AddVertex(Vertex{Endpoint: true})
	}
	for i := 0; i < 3; i++ {
		g.AddVertex(Vertex{})
	}
	for _, l := range [][2]int{{0, 3}, {0, 3}, {3, 4}, {3, 4}, {3, 5}, {4, 5}, {4, 1}, {5, 1}, {5, 2}, {2, 4}, {5, 2}} {
		g.AddEdge(l[0], l[1])
	}
	mustFinalize(g)
	return g
}

// twelveWay joins two hub switches through 12 middle switches, each hub
// carrying two endpoints, so a hub holds 12 equal-cost hops toward the
// other hub's endpoints. The middles' links to the second hub are added
// in a shuffled order, so the order the search reaches the middles is
// not their links' edge-id order at either hub.
func twelveWay() *Graph {
	g := NewGraph("twelve-way")
	h0, h1 := g.AddVertex(Vertex{}), g.AddVertex(Vertex{})
	for i := 0; i < 2; i++ {
		g.AddEdge(h0, g.AddVertex(Vertex{Endpoint: true}))
		g.AddEdge(h1, g.AddVertex(Vertex{Endpoint: true}))
	}
	mid := make([]int, 12)
	for i := range mid {
		mid[i] = g.AddVertex(Vertex{})
		g.AddEdge(h0, mid[i])
	}
	for i := range mid {
		g.AddEdge(mid[i*5%len(mid)], h1)
	}
	mustFinalize(g)
	return g
}

// FuzzTreeMatchesReference checks random multigraphs of up to 16
// vertices with random links down against the reference BFS. data[0]
// picks the vertex count and whether the failures land before or after
// Finalize; each following triple adds a link (a, b) and disables it
// when the third byte is odd.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 0, 1, 1, 1, 2, 0})
	f.Add([]byte{3, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 0, 0})
	f.Add([]byte{0x85, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 0, 4, 0, 0, 0, 2, 0})
	f.Add([]byte{15, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0, 8, 9, 0,
		9, 10, 0, 10, 11, 0, 11, 12, 0, 12, 13, 0, 13, 14, 0, 14, 15, 0, 15, 0, 0, 0, 8, 1, 4, 12, 0})
	// Two hubs, 0 and 1, joined through middles 2..13, one link down:
	// vertex 0 holds 11 equal-cost hops toward 1.
	f.Add([]byte{13, 0, 2, 1, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0,
		7, 1, 0, 12, 1, 0, 5, 1, 0, 10, 1, 0, 3, 1, 0, 8, 1, 0, 13, 1, 0, 6, 1, 0, 11, 1, 0, 4, 1, 0, 9, 1, 0, 2, 1, 0})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, early := 1+int(data[0]&15), data[0]&0x80 != 0
		g := NewGraph("fuzz")
		for v := 0; v < n; v++ {
			g.AddVertex(Vertex{Endpoint: true})
		}
		var down []int
		for i := 1; i+2 < len(data) && g.Edges() < 64; i += 3 {
			a, b := int(data[i])%n, int(data[i+1])%n
			if a == b {
				continue
			}
			e := g.AddEdge(a, b)
			if data[i+2]&1 != 0 {
				down = append(down, e)
			}
		}
		disable := func() {
			for _, e := range down {
				if err := g.DisableEdge(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if early {
			disable()
		}
		_ = g.Finalize() // a disconnected graph still routes what it can
		if !early {
			disable()
		}
		if got := g.DisabledEdges(); got != len(down) {
			t.Fatalf("%d edges disabled, want %d", got, len(down))
		}
		checkTreesMatchReference(t, g)
	})
}

// TestAnalyticDistMatchesBFS pins the closed-form Dist against an
// independent BFS on every vertex pair of small instances of every
// regular topology, including the tricky width-2 dimensions where the
// builders wire no wraparound link.
func TestAnalyticDistMatchesBFS(t *testing.T) {
	graphs := []*Graph{
		Crossbar(1), Crossbar(5),
		Torus2D(2, 2), Torus2D(2, 5), Torus2D(4, 3), Torus2D(5, 5),
		Torus3D(2, 2, 2), Torus3D(2, 3, 4), Torus3D(3, 3, 3), Torus3D(4, 4, 4),
		Hypercube(0), Hypercube(1), Hypercube(3), Hypercube(5),
	}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			if g.analytic == nil {
				t.Fatalf("%s: regular builder did not attach an analytic oracle", g.Name)
			}
			for src := 0; src < g.Vertices(); src++ {
				_, want := referenceNextHops(g, src, nil)
				for dst := 0; dst < g.Vertices(); dst++ {
					if got := g.Dist(src, dst); got != want[dst] {
						t.Fatalf("%s: Dist(%d, %d) = %d, BFS says %d", g.Name, src, dst, got, want[dst])
					}
				}
			}
		})
	}
}

// TestAnalyticBypassedUnderFailures checks that Dist falls back to BFS
// (which sees the longer detour) while any edge is disabled, and
// returns to the O(1) oracle after repair.
func TestAnalyticBypassedUnderFailures(t *testing.T) {
	g := Torus2D(4, 4)
	eps := g.Endpoints()
	before := g.Dist(eps[0], eps[1])
	// Disable endpoint 1's only NIC link: it becomes unreachable, which
	// only the BFS path can report.
	var nic int = -1
	for e := 0; e < g.Edges(); e++ {
		ed := g.Edge(e)
		if ed.A == eps[1] || ed.B == eps[1] {
			nic = e
			break
		}
	}
	if err := g.DisableEdge(nic); err != nil {
		t.Fatal(err)
	}
	if got := g.Dist(eps[0], eps[1]); got != -1 {
		t.Errorf("Dist with NIC down = %d, want -1", got)
	}
	if err := g.EnableEdge(nic); err != nil {
		t.Fatal(err)
	}
	if got := g.Dist(eps[0], eps[1]); got != before {
		t.Errorf("Dist after repair = %d, want %d", got, before)
	}
}

// TestSumDistMatchesPairwise pins SumDist to the sum of pairwise Dist on
// random vertex lists with repeats, over small instances of every
// builder (healthy, and with core links failed so the sum takes the
// fallback), and Torus3D(11,11,11), whose router space is too large for
// the dense table. SumDist allocates nothing once the routing state it
// reads is built.
func TestSumDistMatchesPairwise(t *testing.T) {
	builders := []func() *Graph{
		func() *Graph { return Crossbar(5) },
		func() *Graph { return FatTree(2, 3) },
		func() *Graph { return FatTree(4, 2) },
		func() *Graph { return Torus2D(2, 5) },
		func() *Graph { return Torus2D(4, 3) },
		func() *Graph { return Torus3D(2, 3, 4) },
		func() *Graph { return Torus3D(3, 3, 3) },
		func() *Graph { return Torus3D(11, 11, 11) },
		func() *Graph { return Hypercube(4) },
		parallelLinks,
	}
	rng := rand.New(rand.NewSource(1))
	check := func(t *testing.T, g *Graph) {
		for trial := 0; trial < 20; trial++ {
			verts := make([]int, rng.Intn(14))
			for i := range verts {
				verts[i] = rng.Intn(g.Vertices())
			}
			if len(verts) > 2 {
				verts[len(verts)-1] = verts[0]
			}
			want := 0
			for i := range verts {
				for j := i + 1; j < len(verts); j++ {
					want += g.Dist(verts[i], verts[j])
				}
			}
			if got := g.SumDist(verts); got != want {
				t.Fatalf("SumDist(%v) = %d, pairwise Dist sums to %d", verts, got, want)
			}
			if allocs := testing.AllocsPerRun(2, func() { g.SumDist(verts) }); allocs != 0 {
				t.Fatalf("SumDist(%v) allocated %v times per call", verts, allocs)
			}
		}
	}
	for _, build := range builders {
		g := build()
		t.Run(g.Name, func(t *testing.T) { check(t, g) })
		g = build()
		failed := g.FailCoreLinks(3)
		t.Run(fmt.Sprintf("%s/failed-%d", g.Name, failed), func(t *testing.T) { check(t, g) })
	}
}

// TestSharedGraphConcurrentUse is the exact sharing pattern X6 and the
// future 10⁵-node experiments need: many goroutines calling Dist and
// RouteAppend on one Graph while another flips a link up and down. Run
// under -race; correctness here means no data race, no panic, and every
// answer consistent with either the healthy or the degraded failure set.
func TestSharedGraphConcurrentUse(t *testing.T) {
	g := Torus3D(4, 4, 4)
	eps := g.Endpoints()
	// Flip a router-to-router link (never a NIC link), so the graph
	// stays connected and RouteAppend can always succeed.
	var trunk int = -1
	for e := 0; e < g.Edges(); e++ {
		ed := g.Edge(e)
		if !g.Vertex(ed.A).Endpoint && !g.Vertex(ed.B).Endpoint {
			trunk = e
			break
		}
	}
	healthy := g.Dist(eps[3], eps[40])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := eps[(i*7+w)%len(eps)], eps[(i*13+3*w)%len(eps)]
				if d := g.Dist(a, b); d < 0 {
					t.Errorf("Dist(%d, %d) = %d on a connected torus", a, b, d)
					return
				}
				edges, verts := g.RouteAppend(a, b, nil, nil)
				if len(verts) != len(edges)+1 {
					t.Errorf("RouteAppend(%d, %d): %d edges, %d verts", a, b, len(edges), len(verts))
					return
				}
				if g.Dist(a, b) < 0 {
					t.Errorf("Dist(%d, %d) < 0 on a connected torus", a, b)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if err := g.DisableEdge(trunk); err != nil {
			t.Fatal(err)
		}
		if err := g.EnableEdge(trunk); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := g.Dist(eps[3], eps[40]); got != healthy {
		t.Errorf("Dist after churn = %d, want %d", got, healthy)
	}
	if g.DisabledEdges() != 0 {
		t.Errorf("DisabledEdges after churn = %d, want 0", g.DisabledEdges())
	}
}

// TestEdgeOtherBadInput pins the Other contract: asking with a vertex
// on neither side is a caller bug and must panic, not silently return
// an arbitrary end.
func TestEdgeOtherBadInput(t *testing.T) {
	e := Edge{A: 3, B: 7}
	for _, v := range []int{0, -1, 5, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Other(%d) on edge 3-7 should panic", v)
				}
			}()
			e.Other(v)
		}()
	}
	// The valid cases still answer.
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Error("Other on a valid vertex broke")
	}
}

// TestConcurrentTreeBuild hammers the lazy per-destination tree cache
// from many goroutines at once on a graph with no analytic oracle (fat
// tree), the general-case path.
func TestConcurrentTreeBuild(t *testing.T) {
	g := FatTree(4, 3)
	eps := g.Endpoints()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a, b := eps[(i+w)%len(eps)], eps[(i*11+w*5)%len(eps)]
				if a == b {
					continue
				}
				if d := g.Dist(a, b); d < 2 {
					t.Errorf("fat-tree Dist(%d, %d) = %d, want >= 2", a, b, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// EnableEdge must reject edges that are not disabled, and re-enabling
// one of several failures must keep the others failed (the copy-on-
// write snapshot can't lose entries).
func TestEnableEdgePartialRestore(t *testing.T) {
	g := Torus2D(3, 3)
	if err := g.EnableEdge(0); err == nil {
		t.Fatalf("EnableEdge on a healthy edge succeeded")
	}
	if err := g.DisableEdge(0); err != nil {
		t.Fatal(err)
	}
	if err := g.DisableEdge(1); err != nil {
		t.Fatal(err)
	}
	if err := g.EnableEdge(0); err != nil {
		t.Fatal(err)
	}
	if n := g.DisabledEdges(); n != 1 {
		t.Fatalf("%d disabled edges after partial restore, want 1", n)
	}
	if err := g.EnableEdge(1); err != nil {
		t.Fatal(err)
	}
	if n := g.DisabledEdges(); n != 0 {
		t.Fatalf("%d disabled edges after full restore, want 0", n)
	}
}

// Routing before Finalize is a construction bug; the tree builder must
// refuse it loudly.
func TestRoutingBeforeFinalizePanics(t *testing.T) {
	g := NewGraph("unfinalized")
	a := g.AddVertex(Vertex{Endpoint: true})
	b := g.AddVertex(Vertex{Endpoint: true})
	g.AddEdge(a, b)
	defer func() {
		if recover() == nil {
			t.Fatalf("routing on an unfinalized graph did not panic")
		}
	}()
	g.Dist(a, b)
}

func ExampleEdge_Other() {
	e := Edge{A: 2, B: 9}
	fmt.Println(e.Other(2), e.Other(9))
	// Output: 9 2
}

// TestDenseTableBailouts pins the cases where the ring geometry must
// keep summing ring distances instead of tabulating: a router distance
// that overflows uint8 (half-way round a ring of 600), a coordinate space
// too small to bother with, and one too large to spend a megabyte on.
func TestDenseTableBailouts(t *testing.T) {
	far := newAnalytic([]int32{0, 300}, []int8{1, 0}, 600)
	if far.denseTable() != nil {
		t.Fatal("table built despite a distance over 255")
	}
	if got := far.dist(0, 1); got != 301 {
		t.Fatalf("dist = %d via the ring sum, want 301", got)
	}

	tiny := newAnalytic([]int32{0}, []int8{0}, 1)
	if tiny.denseTable() != nil {
		t.Fatal("table built for a single-router space")
	}
	if got := tiny.dist(0, 0); got != 0 {
		t.Fatalf("same-vertex dist = %d, want 0", got)
	}

	huge := newAnalytic(nil, nil, denseTableMax+1)
	if huge.denseTable() != nil {
		t.Fatal("table built past denseTableMax")
	}
}
