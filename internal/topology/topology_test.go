package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkRoute verifies a route is a valid walk from src to dst over real
// edges with no repeated vertices.
func checkRoute(t *testing.T, g *Graph, src, dst int) {
	t.Helper()
	edges, verts := g.RouteAppend(src, dst, nil, nil)
	if verts[0] != src || verts[len(verts)-1] != dst {
		t.Fatalf("route %d->%d has endpoints %d..%d", src, dst, verts[0], verts[len(verts)-1])
	}
	if len(edges) != len(verts)-1 {
		t.Fatalf("route %d->%d: %d edges, %d verts", src, dst, len(edges), len(verts))
	}
	seen := make(map[int]bool)
	for i, e := range edges {
		ed := g.Edge(e)
		a, b := verts[i], verts[i+1]
		if !(ed.A == a && ed.B == b) && !(ed.A == b && ed.B == a) {
			t.Fatalf("route %d->%d: edge %d (%d-%d) does not join %d-%d", src, dst, e, ed.A, ed.B, a, b)
		}
		if seen[a] {
			t.Fatalf("route %d->%d revisits vertex %d", src, dst, a)
		}
		seen[a] = true
	}
	if got := g.Dist(src, dst); got != len(edges) {
		t.Fatalf("Dist(%d,%d) = %d, route length %d", src, dst, got, len(edges))
	}
}

func allPairsValid(t *testing.T, g *Graph) {
	t.Helper()
	eps := g.Endpoints()
	for _, s := range eps {
		for _, d := range eps {
			if s != d {
				checkRoute(t, g, s, d)
			}
		}
	}
}

func TestCrossbar(t *testing.T) {
	g := Crossbar(8)
	if g.NumEndpoints() != 8 {
		t.Fatalf("endpoints = %d", g.NumEndpoints())
	}
	if g.Vertices() != 9 || g.Edges() != 8 {
		t.Fatalf("verts=%d edges=%d, want 9, 8", g.Vertices(), g.Edges())
	}
	allPairsValid(t, g)
	if d := g.Diameter(); d != 2 {
		t.Fatalf("crossbar diameter = %d, want 2", d)
	}
}

func TestFatTreeShape(t *testing.T) {
	// 4-ary 2-tree: 16 endpoints, 2*4 switches, full bisection.
	g := FatTree(4, 2)
	if g.NumEndpoints() != 16 {
		t.Fatalf("endpoints = %d, want 16", g.NumEndpoints())
	}
	if got, want := g.Vertices(), 16+2*4; got != want {
		t.Fatalf("verts = %d, want %d", got, want)
	}
	// Edges: 16 endpoint links + 4 leaf switches x 4 uplinks.
	if got, want := g.Edges(), 16+16; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if g.BisectionLinks != 8 {
		t.Fatalf("bisection = %d, want 8", g.BisectionLinks)
	}
	allPairsValid(t, g)
	// Diameter: up to the top and back down = 2 + 2(levels-1) hops... for
	// a 2-level tree: ep-leaf-top-leaf-ep = 4.
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestFatTreeThreeLevels(t *testing.T) {
	g := FatTree(2, 3) // 8 endpoints, 3 levels x 4 switches
	if g.NumEndpoints() != 8 || g.Vertices() != 8+12 {
		t.Fatalf("shape: eps=%d verts=%d", g.NumEndpoints(), g.Vertices())
	}
	allPairsValid(t, g)
	if d := g.Diameter(); d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
	// Same-leaf endpoints are 2 hops apart.
	if d := g.Dist(0, 1); d != 2 {
		t.Fatalf("same-leaf dist = %d, want 2", d)
	}
}

func TestFatTreeSwitchDegrees(t *testing.T) {
	k, n := 4, 3
	g := FatTree(k, n)
	for v := 0; v < g.Vertices(); v++ {
		vert := g.Vertex(v)
		if vert.Endpoint {
			if g.Degree(v) != 1 {
				t.Fatalf("endpoint %d degree %d", v, g.Degree(v))
			}
			continue
		}
		// Leaf and middle switches have 2k ports; top switches k.
		deg := g.Degree(v)
		if deg != k && deg != 2*k {
			t.Fatalf("switch %d degree %d, want %d or %d", v, deg, k, 2*k)
		}
	}
}

func TestTorus2D(t *testing.T) {
	g := Torus2D(4, 4)
	if g.NumEndpoints() != 16 {
		t.Fatalf("endpoints = %d", g.NumEndpoints())
	}
	// 16 routers, 16 endpoints; edges: 16 injection + 2*16 torus links.
	if got, want := g.Edges(), 16+32; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if g.BisectionLinks != 8 {
		t.Fatalf("bisection = %d, want 8", g.BisectionLinks)
	}
	allPairsValid(t, g)
	// Max router distance in 4x4 torus is 2+2=4; plus 2 injection hops.
	if d := g.Diameter(); d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestTorus2DNoWrapForTwoWide(t *testing.T) {
	// Width 2 must not add wrap links (they would duplicate the existing
	// neighbor link).
	g := Torus2D(2, 4)
	// edges: 8 injection + horizontal 4 + vertical (2 cols x 4) = 8+4+8.
	if got, want := g.Edges(), 8+4+8; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	allPairsValid(t, g)
}

func TestTorus3D(t *testing.T) {
	g := Torus3D(3, 3, 3)
	if g.NumEndpoints() != 27 {
		t.Fatalf("endpoints = %d", g.NumEndpoints())
	}
	// Edges: 27 injection + 3 dims x 27 links.
	if got, want := g.Edges(), 27+81; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	allPairsValid(t, g)
	if d := g.Diameter(); d != 3+2 {
		t.Fatalf("diameter = %d, want 5", d)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.NumEndpoints() != 16 {
		t.Fatalf("endpoints = %d", g.NumEndpoints())
	}
	if got, want := g.Edges(), 16+16*4/2; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if g.BisectionLinks != 8 {
		t.Fatalf("bisection = %d, want 8", g.BisectionLinks)
	}
	allPairsValid(t, g)
	if d := g.Diameter(); d != 4+2 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestRouteDeterministic(t *testing.T) {
	g := FatTree(4, 2)
	e1, v1 := g.RouteAppend(0, 15, nil, nil)
	e2, v2 := g.RouteAppend(0, 15, nil, nil)
	if len(e1) != len(e2) {
		t.Fatal("route lengths differ between calls")
	}
	for i := range e1 {
		if e1[i] != e2[i] || v1[i] != v2[i] {
			t.Fatal("route not deterministic")
		}
	}
}

func TestRouteSpreadsAcrossUplinks(t *testing.T) {
	// In a fat tree, different (src,dst) flows should use different top
	// switches, not all converge on one.
	g := FatTree(4, 2)
	tops := make(map[int]bool)
	numEP := 16
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 16; dst++ {
			_, verts := g.RouteAppend(src, dst, nil, nil)
			for _, v := range verts {
				if v >= numEP+4 { // top-level switch ids
					tops[v] = true
				}
			}
		}
	}
	if len(tops) < 2 {
		t.Fatalf("all flows use %d top switch(es); ECMP hash not spreading", len(tops))
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	g := Crossbar(4)
	src := g.Endpoints()[0]
	edges, verts := g.RouteAppend(src, src, nil, nil)
	if len(edges) != 0 || len(verts) != 1 || verts[0] != src {
		t.Fatalf("self route = %v, %v", edges, verts)
	}
}

func TestDisconnectedGraphErrors(t *testing.T) {
	g := NewGraph("broken")
	g.AddVertex(Vertex{Endpoint: true})
	g.AddVertex(Vertex{Endpoint: true})
	if err := g.Finalize(); err == nil {
		t.Fatal("disconnected graph finalized without error")
	}
}

func TestNoEndpointsErrors(t *testing.T) {
	g := NewGraph("empty")
	g.AddVertex(Vertex{})
	if err := g.Finalize(); err == nil {
		t.Fatal("endpoint-free graph finalized without error")
	}
}

// Property: in any torus size, every endpoint pair routes validly and the
// hop count is within the analytic bound.
func TestTorusRoutingProperty(t *testing.T) {
	prop := func(rawW, rawH uint8) bool {
		w := int(rawW%5) + 2
		h := int(rawH%5) + 2
		g := Torus2D(w, h)
		eps := g.Endpoints()
		bound := w/2 + h/2 + 2
		if w == 2 {
			bound = w - 1 + h/2 + 2
		}
		if h == 2 {
			bound = w/2 + h - 1 + 2
		}
		if w == 2 && h == 2 {
			bound = 2 + 2
		}
		for _, s := range eps {
			for _, d := range eps {
				if s == d {
					continue
				}
				if got := g.Dist(s, d); got < 0 || got > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgDistance(t *testing.T) {
	g := Crossbar(10)
	if d := g.AvgDistance(); d != 2 {
		t.Fatalf("crossbar avg distance = %g, want 2", d)
	}
}

func TestFatTreeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	g := FatTree(8, 3) // 512 endpoints
	if g.NumEndpoints() != 512 {
		t.Fatalf("endpoints = %d", g.NumEndpoints())
	}
	// Spot-check routes.
	checkRoute(t, g, 0, 511)
	checkRoute(t, g, 5, 6)
	checkRoute(t, g, 100, 350)
	if d := g.Dist(0, 7); d != 2 {
		t.Fatalf("same-leaf distance = %d, want 2", d)
	}
}

// TestRouteAppendAllocationFree pins that a warm RouteAppend into
// reused slices allocates nothing on every graph the suite, the
// benchmark and the cmd/northstar goldens route over: the candidate
// scratch lives on the stack.
func TestRouteAppendAllocationFree(t *testing.T) {
	graphs := []*Graph{
		Crossbar(64), FatTree(4, 2), FatTree(4, 3), Torus2D(8, 8),
		Torus3D(4, 4, 4), Torus3D(11, 11, 11), Hypercube(6),
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range graphs {
		eps := g.Endpoints()
		src, dst := make([]int, 200), make([]int, 200)
		for i := range src {
			src[i], dst[i] = eps[rng.Intn(len(eps))], eps[rng.Intn(len(eps))]
		}
		var edges, verts []int
		route := func() {
			for i := range src {
				edges, verts = g.RouteAppend(src[i], dst[i], edges, verts)
			}
		}
		route()
		if allocs := testing.AllocsPerRun(3, route); allocs != 0 {
			t.Errorf("%s: %v allocations per 200 warm routes", g.Name, allocs)
		}
	}
}

// A tree build allocates the tree alone, its rank and level slices: the
// search queue is the graph's, borrowed and handed back.
func TestBuildTreeAllocatesOnlyTheTree(t *testing.T) {
	g := Torus3D(4, 4, 4)
	down := g.routing.Load().down
	g.buildTree(0, down) // the first build allocates the queue
	if allocs := testing.AllocsPerRun(20, func() { g.buildTree(0, down) }); allocs != 2 {
		t.Errorf("%v allocations per tree build, want 2", allocs)
	}
}

func BenchmarkFatTreeRoute(b *testing.B) {
	g := FatTree(8, 3)
	eps := g.Endpoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RouteAppend(eps[i%len(eps)], eps[(i*7+13)%len(eps)], nil, nil)
	}
}
