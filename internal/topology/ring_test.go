package topology

import (
	"slices"
	"testing"
)

// ringShapes returns the regular graphs TestRingRoutesMatchTrees routes
// exhaustively: every Torus3D with sides 1–6 × 1–6 × 1–5, every Torus2D
// from 1–10 × 1–10, Hypercube(0..7), Crossbar(1..9), Torus3D(7,8,9) and
// the ring Torus2D(1,70), whose 35-step paths outgrow ringRoute's stack
// buffer: 299 shapes and 3,517,156 ordered vertex pairs. Under the race
// detector, which runs them about ten times slower, it keeps the shapes
// of up to 24 routers and the ring: 160 shapes, 132,948 pairs.
func ringShapes() []func() *Graph {
	var out []func() *Graph
	add := func(routers int, build func() *Graph) {
		if !raceEnabled || routers <= 24 {
			out = append(out, build)
		}
	}
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			for z := 1; z <= 5; z++ {
				add(x*y*z, func() *Graph { return Torus3D(x, y, z) })
			}
		}
	}
	for w := 1; w <= 10; w++ {
		for h := 1; h <= 10; h++ {
			add(w*h, func() *Graph { return Torus2D(w, h) })
		}
	}
	for d := 0; d <= 7; d++ {
		add(1<<d, func() *Graph { return Hypercube(d) })
	}
	for n := 1; n <= 9; n++ {
		add(1, func() *Graph { return Crossbar(n) })
	}
	add(7*8*9, func() *Graph { return Torus3D(7, 8, 9) })
	out = append(out, func() *Graph { return Torus2D(1, 70) })
	return out
}

// TestRingRoutesMatchTrees routes every ordered vertex pair of every
// ring shape through the ring geometry and through the trees, forced by
// calling treeRoute, and requires the same edges and vertices. The trees
// are pinned to an independent BFS by TestTreesMatchReference, so this
// pins the ring router's candidate order, its path keeping and its legs.
func TestRingRoutesMatchTrees(t *testing.T) {
	shapes := ringShapes()
	if want := map[bool]int{false: 299, true: 160}[raceEnabled]; len(shapes) != want {
		t.Fatalf("%d shapes, want %d", len(shapes), want)
	}
	for _, build := range shapes {
		g := build()
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			st := g.routing.Load()
			var ringE, ringV, treeE, treeV []int
			for dst := 0; dst < g.Vertices(); dst++ {
				for src := 0; src < g.Vertices(); src++ {
					if src == dst {
						continue
					}
					ringE, ringV = g.RouteAppend(src, dst, ringE, ringV)
					treeE, treeV = g.treeRoute(st, src, dst, treeE[:0], treeV[:0])
					if !slices.Equal(ringE, treeE) || !slices.Equal(ringV, treeV) {
						t.Fatalf("ring route %d->%d = %v via %v, tree route %v via %v",
							src, dst, ringE, ringV, treeE, treeV)
					}
				}
			}
		})
	}
}

// treesBuilt counts the tree slots filled in g's current snapshot.
func treesBuilt(g *Graph) int {
	n := 0
	st := g.routing.Load()
	for i := range st.trees {
		if st.trees[i].tree.rank != nil {
			n++
		}
	}
	return n
}

// TestRingRoutesBuildNoTrees routes, measures and checks reachability
// for every endpoint pair of healthy regular graphs: none of it builds a
// tree beyond Finalize's connectivity check.
func TestRingRoutesBuildNoTrees(t *testing.T) {
	for _, g := range []*Graph{Torus3D(5, 5, 5), Torus2D(6, 5), Hypercube(5), Crossbar(8)} {
		allPairsValid(t, g)
		for _, src := range g.Endpoints() {
			for _, dst := range g.Endpoints() {
				if g.Dist(src, dst) < 0 {
					t.Fatalf("%s: Dist(%d, %d) < 0", g.Name, src, dst)
				}
			}
		}
		if n := treesBuilt(g); n != 1 {
			t.Errorf("%s: %d trees built, want Finalize's 1", g.Name, n)
		}
	}
}

// TestRingRoutesFailover fails one router link of each regular graph:
// the graph then routes over trees and around the link. Re-enabled, it
// routes through the ring geometry again, building no tree, and every
// route matches the healthy graph's.
func TestRingRoutesFailover(t *testing.T) {
	for _, build := range []func() *Graph{
		func() *Graph { return Torus3D(4, 3, 5) },
		func() *Graph { return Torus2D(6, 5) },
		func() *Graph { return Hypercube(4) },
	} {
		g := build()
		healthy := routeDigest(g)
		if n := g.FailCoreLinks(1); n != 1 {
			t.Fatalf("%s: FailCoreLinks(1) = %d", g.Name, n)
		}
		failed := -1
		for e, d := range g.routing.Load().down {
			if d {
				failed = e
			}
		}
		allPairsValid(t, g)
		for _, src := range g.Endpoints() {
			for _, dst := range g.Endpoints() {
				if edges, _ := g.RouteAppend(src, dst, nil, nil); slices.Contains(edges, failed) {
					t.Fatalf("%s: route %d->%d crosses failed link %d", g.Name, src, dst, failed)
				}
			}
		}
		if n := treesBuilt(g); n != g.NumEndpoints() {
			t.Errorf("%s: %d trees built with a link down, want one per endpoint, %d", g.Name, n, g.NumEndpoints())
		}
		if err := g.EnableEdge(failed); err != nil {
			t.Fatal(err)
		}
		if got := routeDigest(g); got != healthy {
			t.Errorf("%s: re-enabled route digest %s, healthy %s", g.Name, got, healthy)
		}
		if n := treesBuilt(g); n != 0 {
			t.Errorf("%s: %d trees built after re-enabling, want 0", g.Name, n)
		}
	}
}

// FuzzRegularRoutes routes one vertex pair of a regular builder's graph,
// healthy or with one link down, and compares RouteAppend with a walk
// over referenceNextHops. data[0] picks the builder, the next three bytes its
// sizes, the next two the pair, and a sixth byte, if present, the link
// to fail.
func FuzzRegularRoutes(f *testing.F) {
	f.Add([]byte{0, 4, 4, 4, 3, 100})
	f.Add([]byte{0, 4, 3, 5, 7, 90, 40})
	f.Add([]byte{1, 6, 1, 0, 0, 11})
	f.Add([]byte{1, 2, 5, 0, 19, 2, 9})
	f.Add([]byte{2, 5, 0, 0, 1, 62})
	f.Add([]byte{2, 3, 0, 0, 9, 4, 20})
	f.Add([]byte{3, 7, 0, 0, 0, 5})
	f.Add([]byte{3, 4, 0, 0, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		side := func(b byte) int { return 1 + int(b)%6 }
		var g *Graph
		switch data[0] % 4 {
		case 0:
			g = Torus3D(side(data[1]), side(data[2]), side(data[3]))
		case 1:
			g = Torus2D(1+int(data[1])%10, 1+int(data[2])%10)
		case 2:
			g = Hypercube(int(data[1]) % 7)
		default:
			g = Crossbar(1 + int(data[1])%9)
		}
		src, dst := int(data[4])%g.Vertices(), int(data[5])%g.Vertices()
		disabled := map[int]bool{}
		if len(data) > 6 {
			e := int(data[6]) % g.Edges()
			if err := g.DisableEdge(e); err != nil {
				t.Fatal(err)
			}
			disabled[e] = true
		}
		next, dist := referenceNextHops(g, dst, disabled)
		if got := g.Dist(src, dst); got != dist[src] {
			t.Fatalf("%s: Dist(%d, %d) = %d, reference %d", g.Name, src, dst, got, dist[src])
		}
		if dist[src] < 0 {
			return
		}
		wantE, wantV := referenceRoute(g, next, src, dst)
		gotE, gotV := g.RouteAppend(src, dst, nil, nil)
		if !slices.Equal(gotE, wantE) || !slices.Equal(gotV, wantV) {
			t.Fatalf("%s (down %v): RouteAppend(%d, %d) = %v via %v, reference %v via %v",
				g.Name, disabled, src, dst, gotE, gotV, wantE, wantV)
		}
	})
}
