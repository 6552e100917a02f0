package topology

import (
	"fmt"
	"sync"
	"testing"
)

// referenceDist is an independent BFS, deliberately not sharing code
// with Graph.tree, used to pin the analytic oracle.
func referenceDist(g *Graph, src int) []int {
	adj := make([][]int, g.Vertices())
	for e := 0; e < g.Edges(); e++ {
		ed := g.Edge(e)
		adj[ed.A] = append(adj[ed.A], ed.B)
		adj[ed.B] = append(adj[ed.B], ed.A)
	}
	dist := make([]int, g.Vertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
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
				want := referenceDist(g, src)
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

// TestSharedGraphConcurrentUse is the exact sharing pattern X6 and the
// future 10⁵-node experiments need: many goroutines calling
// Dist/Route/Reachable on one Graph while another flips a link up and
// down. Run under -race; correctness here means no data race, no panic,
// and every answer consistent with either the healthy or the degraded
// failure set.
func TestSharedGraphConcurrentUse(t *testing.T) {
	g := Torus3D(4, 4, 4)
	eps := g.Endpoints()
	// Flip a router-to-router link (never a NIC link), so the graph
	// stays connected and Route can always succeed.
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
				edges, verts := g.Route(a, b)
				if len(verts) != len(edges)+1 {
					t.Errorf("Route(%d, %d): %d edges, %d verts", a, b, len(edges), len(verts))
					return
				}
				if !g.Reachable(a, b) {
					t.Errorf("Reachable(%d, %d) = false on a connected torus", a, b)
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

// crossbarDist is defensive dead code on a healthy crossbar (every
// vertex hangs off the single router, so routerDist is never consulted
// for distinct routers) — pin its contract directly.
func TestCrossbarDistUnit(t *testing.T) {
	if d := crossbarDist(2, 2); d != 0 {
		t.Fatalf("crossbarDist(2,2) = %d, want 0", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("crossbarDist(1,2) did not panic")
		}
	}()
	crossbarDist(1, 2)
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

// TestDenseTableBailouts pins the cases where the analytic oracle must
// keep the closed-form closure instead of tabulating: a router distance
// that overflows uint8, a coordinate space too small to bother with, and
// one too large to spend a megabyte on.
func TestDenseTableBailouts(t *testing.T) {
	far := &analytic{
		router:     []int32{0, 1},
		leg:        []int8{1, 0},
		nr:         2,
		routerDist: func(a, b int32) int { return 300 },
	}
	if far.denseTable() != nil {
		t.Fatal("table built despite a distance over 255")
	}
	if got := far.dist(0, 1); got != 301 {
		t.Fatalf("dist = %d via closure fallback, want 301", got)
	}

	tiny := &analytic{
		router:     []int32{0},
		leg:        []int8{0},
		nr:         1,
		routerDist: func(a, b int32) int { return 1 },
	}
	if tiny.denseTable() != nil {
		t.Fatal("table built for a single-router space")
	}
	if got := tiny.dist(0, 0); got != 0 {
		t.Fatalf("same-vertex dist = %d, want 0", got)
	}

	huge := &analytic{
		nr:         denseTableMax + 1,
		routerDist: func(a, b int32) int { return 1 },
	}
	if huge.denseTable() != nil {
		t.Fatal("table built past denseTableMax")
	}
}
