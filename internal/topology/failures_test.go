package topology

import (
	"testing"
	"testing/quick"
)

func TestDisableEdgeReroutes(t *testing.T) {
	g := FatTree(4, 2)
	src, dst := 0, 15
	edges, _ := g.Route(src, dst)
	// Kill the first switch-to-switch link on the path (not the endpoint
	// links, which are single points of attachment).
	var victim = -1
	for _, e := range edges {
		ed := g.Edge(e)
		if !g.Vertex(ed.A).Endpoint && !g.Vertex(ed.B).Endpoint {
			victim = e
			break
		}
	}
	if victim < 0 {
		t.Fatal("no switch-level link on route")
	}
	if err := g.DisableEdge(victim); err != nil {
		t.Fatal(err)
	}
	if !g.AllEndpointsConnected() {
		t.Fatal("fat tree disconnected by one switch link")
	}
	newEdges, _ := g.Route(src, dst)
	for _, e := range newEdges {
		if e == victim {
			t.Fatal("route still uses the failed link")
		}
	}
	checkRoute(t, g, src, dst)
	// Restore and confirm the caches refresh.
	if err := g.EnableEdge(victim); err != nil {
		t.Fatal(err)
	}
	if g.DisabledEdges() != 0 {
		t.Fatalf("disabled edges = %d after restore", g.DisabledEdges())
	}
	allPairsValid(t, g)
}

func TestDisableEndpointLinkDisconnects(t *testing.T) {
	g := Crossbar(4)
	// Edge 0 attaches endpoint 0 to the switch: no redundancy.
	if err := g.DisableEdge(0); err != nil {
		t.Fatal(err)
	}
	if g.AllEndpointsConnected() {
		t.Fatal("crossbar claims connectivity with a severed endpoint")
	}
	eps := g.Endpoints()
	if g.Reachable(eps[0], eps[1]) {
		t.Fatal("severed endpoint still reachable")
	}
	if !g.Reachable(eps[1], eps[2]) {
		t.Fatal("unrelated endpoints lost connectivity")
	}
}

func TestDisableEdgeValidation(t *testing.T) {
	g := Crossbar(4)
	if err := g.DisableEdge(99); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.DisableEdge(1); err != nil {
		t.Fatal(err)
	}
	if err := g.DisableEdge(1); err == nil {
		t.Error("double disable accepted")
	}
	if err := g.EnableEdge(2); err == nil {
		t.Error("enable of healthy edge accepted")
	}
}

// TestFailCoreLinks pins the degraded-fabric helper that X2 and
// `northstar topo` share: it fails switch-to-switch links in edge order,
// never disconnects an endpoint, and stops when every remaining core
// link is needed.
func TestFailCoreLinks(t *testing.T) {
	g := FatTree(4, 2) // 16 endpoint links (edges 0-15), then 16 core links
	if got := g.FailCoreLinks(3); got != 3 {
		t.Fatalf("FailCoreLinks(3) = %d", got)
	}
	disabled := g.routing.Load().disabled
	if len(disabled) != 3 || !disabled[16] || !disabled[17] || !disabled[18] {
		t.Fatalf("disabled %v, want the first three core links 16, 17, 18", disabled)
	}
	if got := Crossbar(4).FailCoreLinks(2); got != 0 {
		t.Fatalf("crossbar has no core links, FailCoreLinks(2) = %d", got)
	}
	h := FatTree(4, 2)
	n := h.FailCoreLinks(1000)
	if n == 0 || n >= 16 || h.DisabledEdges() != n || !h.AllEndpointsConnected() {
		t.Fatalf("FailCoreLinks(1000) = %d, disabled %d, connected %v",
			n, h.DisabledEdges(), h.AllEndpointsConnected())
	}
	if again := h.FailCoreLinks(1); again != 0 {
		t.Fatalf("a maximally degraded tree lost %d more links", again)
	}
	allPairsValid(t, h)
}

func TestDisableVertexKillsSwitch(t *testing.T) {
	g := FatTree(2, 2) // 4 endpoints, 2 leaf + 2 top switches
	// Kill one top switch (id: 4 endpoints + 2 leaves => top at 4+2, 4+3).
	topSwitch := 4 + 2
	if g.Vertex(topSwitch).Endpoint {
		t.Fatal("expected a switch vertex")
	}
	disabled, err := g.DisableVertex(topSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if len(disabled) != 2 {
		t.Fatalf("top switch had %d links, want 2", len(disabled))
	}
	// The 2-ary 2-tree has two top switches; losing one keeps everything
	// connected through the other.
	if !g.AllEndpointsConnected() {
		t.Fatal("fat tree disconnected by losing one of two top switches")
	}
	allPairsValid(t, g)
}

// Property: a torus survives any single link failure (every router has
// degree >= 3 counting the endpoint link, and the torus core is
// 2-connected for sizes > 2).
func TestTorusSingleFailureProperty(t *testing.T) {
	prop := func(rawEdge uint16) bool {
		g := Torus2D(4, 4)
		// Only fail router-router links (endpoint links are unique).
		var core []int
		for e := 0; e < g.Edges(); e++ {
			ed := g.Edge(e)
			if !g.Vertex(ed.A).Endpoint && !g.Vertex(ed.B).Endpoint {
				core = append(core, e)
			}
		}
		victim := core[int(rawEdge)%len(core)]
		if err := g.DisableEdge(victim); err != nil {
			return false
		}
		if !g.AllEndpointsConnected() {
			return false
		}
		eps := g.Endpoints()
		for _, s := range eps {
			for _, d := range eps {
				if s == d {
					continue
				}
				edges, _ := g.Route(s, d)
				for _, e := range edges {
					if e == victim {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
