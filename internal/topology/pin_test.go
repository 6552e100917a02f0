package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
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
	mustPanic(t, "RouteAppend", "no route", func() { g.RouteAppend(eps[0], eps[1], nil, nil) })
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

func TestReachableSelfAndEmpty(t *testing.T) {
	g := Crossbar(2)
	ep := g.Endpoints()[0]
	if g.Dist(ep, ep) < 0 {
		t.Error("endpoint not reachable from itself")
	}
	empty := NewGraph("empty")
	if empty.AllEndpointsConnected() {
		t.Error("graph with no endpoints reports connected")
	}
}

// TestRoutesPinned hashes the edge and vertex sequence of every route
// over 20,000 seeded endpoint pairs of Torus3D(11,11,11), the 1,024-rank
// collectives machine's graph, and over every ordered endpoint pair of
// FatTree(4,3), Hypercube(7) and Torus2D(8,8), healthy and after
// FailCoreLinks(3). The reference oracle only reaches small instances;
// these digests catch a candidate-order slip that shows only at scale.
func TestRoutesPinned(t *testing.T) {
	cases := []struct {
		build         func() *Graph
		healthy, fail string
	}{
		{func() *Graph { return Torus3D(11, 11, 11) },
			"29b4941a5746fb72c52966b7a1bd619f27f3b1a954974d58bc3f1bf65f7da0ee",
			"c6f940f6aef351240450f092ecc6a70ea0e097492e673d1953c998a12f1f6bf5"},
		{func() *Graph { return FatTree(4, 3) },
			"b13ab507d264a9d6bf42057300e6be457768f4dc0f2adb29847a716fc1c16ed5",
			"7272f776909a6af18cf3c8bdb72b661e703ed74d514a89cdc00dece08179c606"},
		{func() *Graph { return Hypercube(7) },
			"b1d28719b4d863e21024524f6e4dfdf973079ea0093deafab613da0452ec3eac",
			"75e1bcf4f452d3da8f418d54f2558dda527c3102ac3fc5bff7e9caf1863f71f8"},
		{func() *Graph { return Torus2D(8, 8) },
			"993aedf6f4d7e258372767d29eeae234dae09f8b34364589d3ba64efeee79e74",
			"6f52da2e61f8b3aa432a4617a77593d206573782f14152d4f9c242a674a622ae"},
	}
	for _, c := range cases {
		for _, failed := range []bool{false, true} {
			g := c.build()
			want := c.healthy
			if failed {
				if n := g.FailCoreLinks(3); n != 3 {
					t.Fatalf("%s: FailCoreLinks(3) = %d", g.Name, n)
				}
				want = c.fail
			}
			if got := routeDigest(g); got != want {
				t.Errorf("%s (failed=%v): route digest %s, want %s", g.Name, failed, got, want)
			}
		}
	}
}

// routeDigest is the sha256 of g's routes in TestRoutesPinned's order:
// per pair, the route's hop count, then its edge ids, then its vertex
// ids, each as a little-endian uint32. Graphs with more than 256
// endpoints take 20,000 pairs from a fixed seed instead of every pair.
func routeDigest(g *Graph) string {
	eps := g.Endpoints()
	var pairs [][2]int
	if len(eps) > 256 {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			pairs = append(pairs, [2]int{eps[rng.Intn(len(eps))], eps[rng.Intn(len(eps))]})
		}
	} else {
		for _, src := range eps {
			for _, dst := range eps {
				if src != dst {
					pairs = append(pairs, [2]int{src, dst})
				}
			}
		}
	}
	h := sha256.New()
	var buf [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	var edges, verts []int
	for _, p := range pairs {
		edges, verts = g.RouteAppend(p[0], p[1], edges, verts)
		put(len(edges))
		for _, e := range edges {
			put(e)
		}
		for _, v := range verts {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
