package topology

import (
	"math"
	"strings"
	"testing"
)

// Pin-behavior tests: exact sizes, bisection counts, and distance
// metrics for every builder, plus the panic/error contracts of the
// construction and failure APIs. The numbers are the package's current
// output, recorded so any change to builders or routing shows up as an
// explicit diff here rather than as silent drift in the network
// experiments built on top.

func TestBuilderMetricsPinned(t *testing.T) {
	cases := []struct {
		g                 *Graph
		name              string
		eps, verts, edges int
		bisect, diam      int
		avg               float64
	}{
		{Crossbar(8), "crossbar-8", 8, 9, 8, 4, 2, 2.0},
		{FatTree(2, 3), "fattree-2-ary-3-tree", 8, 20, 24, 4, 6, 4.857143},
		{Hypercube(3), "hypercube-3", 8, 16, 20, 4, 5, 3.714286},
		{Torus2D(4, 4), "torus2d-4x4", 16, 32, 48, 8, 6, 4.133333},
		{Torus3D(2, 3, 2), "torus3d-2x3x2", 12, 24, 36, 8, 5, 3.818182},
		// Past the exact-enumeration thresholds: Diameter samples above
		// 256 endpoints, AvgDistance above 128, both seeded, so these
		// stay reproducible too.
		{Hypercube(9), "hypercube-9", 512, 1024, 2816, 256, 11, 6.524246},
		{Torus2D(12, 12), "torus2d-12x12", 144, 288, 432, 24, 14, 8.039266},
	}
	for _, c := range cases {
		if c.g.Name != c.name {
			t.Errorf("name = %q, want %q", c.g.Name, c.name)
		}
		if got := c.g.NumEndpoints(); got != c.eps {
			t.Errorf("%s: endpoints = %d, want %d", c.name, got, c.eps)
		}
		if got := c.g.Vertices(); got != c.verts {
			t.Errorf("%s: vertices = %d, want %d", c.name, got, c.verts)
		}
		if got := c.g.Edges(); got != c.edges {
			t.Errorf("%s: edges = %d, want %d", c.name, got, c.edges)
		}
		if got := c.g.BisectionLinks; got != c.bisect {
			t.Errorf("%s: bisection = %d, want %d", c.name, got, c.bisect)
		}
		if got := c.g.Diameter(); got != c.diam {
			t.Errorf("%s: diameter = %d, want %d", c.name, got, c.diam)
		}
		if got := c.g.AvgDistance(); math.Abs(got-c.avg) > 5e-7 {
			t.Errorf("%s: avg distance = %.6f, want %.6f", c.name, got, c.avg)
		}
	}
}

func TestAvgDistanceDegenerate(t *testing.T) {
	if got := Crossbar(1).AvgDistance(); got != 0 {
		t.Errorf("single endpoint: avg distance = %g, want 0", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{A: 3, B: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Errorf("Other: got %d/%d, want 7/3", e.Other(3), e.Other(7))
	}
}

func mustPanic(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", name)
			return
		}
		msg := ""
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		}
		if !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q does not mention %q", name, msg, want)
		}
	}()
	fn()
}

// Invalid construction must fail loudly at the builder, not as a
// corrupt graph downstream.
func TestBuilderPanics(t *testing.T) {
	mustPanic(t, "Crossbar(0)", "at least 1", func() { Crossbar(0) })
	mustPanic(t, "FatTree(1,3)", "arity", func() { FatTree(1, 3) })
	mustPanic(t, "FatTree(2,0)", "arity", func() { FatTree(2, 0) })
	mustPanic(t, "Torus2D(0,3)", "positive", func() { Torus2D(0, 3) })
	mustPanic(t, "Torus2D(3,0)", "positive", func() { Torus2D(3, 0) })
	mustPanic(t, "Torus3D(0,1,1)", "positive", func() { Torus3D(0, 1, 1) })
	mustPanic(t, "Hypercube(-1)", "out of range", func() { Hypercube(-1) })
	mustPanic(t, "Hypercube(21)", "out of range", func() { Hypercube(21) })
}

func TestGraphMutationPanics(t *testing.T) {
	g := NewGraph("t")
	a := g.AddVertex(Vertex{Endpoint: true})
	b := g.AddVertex(Vertex{Endpoint: true})
	mustPanic(t, "self edge", "bad edge", func() { g.AddEdge(a, a) })
	mustPanic(t, "out-of-range edge", "bad edge", func() { g.AddEdge(a, 99) })
	g.AddEdge(a, b)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "AddVertex after Finalize", "Finalize", func() { g.AddVertex(Vertex{}) })
	mustPanic(t, "AddEdge after Finalize", "Finalize", func() { g.AddEdge(a, b) })
	if err := g.Finalize(); err != nil {
		t.Errorf("second Finalize: %v", err)
	}
}

func TestMustFinalizePanicsOnDisconnected(t *testing.T) {
	g := NewGraph("disc")
	g.AddVertex(Vertex{Endpoint: true})
	g.AddVertex(Vertex{Endpoint: true})
	mustPanic(t, "mustFinalize", "disconnected", func() { mustFinalize(g) })
}

func TestRoutePanicsWithoutPath(t *testing.T) {
	g := Crossbar(2)
	eps := g.Endpoints()
	for e := 0; e < g.Edges(); e++ {
		if err := g.DisableEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	mustPanic(t, "Route", "no route", func() { g.Route(eps[0], eps[1]) })
	if g.Dist(eps[0], eps[1]) != -1 {
		t.Error("Dist across a cut is not -1")
	}
	if g.Dist(eps[0], eps[0]) != 0 {
		t.Error("Dist to self is not 0")
	}
}

// Torus3D's bisection is computed perpendicular to the longest
// dimension, whichever position it appears in.
func TestTorus3DLongestDimension(t *testing.T) {
	for _, c := range []struct {
		x, y, z, bisect int
	}{
		{4, 2, 2, 8}, // longest first: 2*(2*2)
		{2, 4, 2, 8}, // longest second
		{2, 2, 4, 8}, // longest third
		{2, 2, 2, 4}, // no wrap anywhere: plain cross-section
	} {
		if got := Torus3D(c.x, c.y, c.z).BisectionLinks; got != c.bisect {
			t.Errorf("Torus3D(%d,%d,%d): bisection %d, want %d", c.x, c.y, c.z, got, c.bisect)
		}
	}
}

func TestDisableVertexErrorsAndSkips(t *testing.T) {
	g := Crossbar(4)
	if _, err := g.DisableVertex(-1); err == nil {
		t.Error("DisableVertex(-1) did not error")
	}
	if _, err := g.DisableVertex(g.Vertices()); err == nil {
		t.Error("DisableVertex(out of range) did not error")
	}
	// Disabling an edge first, then its vertex: the vertex disable must
	// skip the already-dead edge rather than double-disable it.
	ep := g.Endpoints()[0]
	if err := g.DisableEdge(0); err != nil {
		t.Fatal(err)
	}
	got, err := g.DisableVertex(ep)
	if err != nil {
		t.Fatalf("DisableVertex after DisableEdge: %v", err)
	}
	for _, e := range got {
		if e == 0 {
			t.Error("DisableVertex re-disabled an already-disabled edge")
		}
	}
}

func TestReachableSelfAndEmpty(t *testing.T) {
	g := Crossbar(2)
	ep := g.Endpoints()[0]
	if !g.Reachable(ep, ep) {
		t.Error("endpoint not reachable from itself")
	}
	empty := NewGraph("empty")
	if empty.AllEndpointsConnected() {
		t.Error("graph with no endpoints reports connected")
	}
}
