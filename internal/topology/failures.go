package topology

import (
	"fmt"
	"slices"
)

// Link-failure support: edges can be disabled (a failed cable, switch
// port, or — by disabling all of a switch's edges — a whole switch).
// Routing recomputes around disabled edges, modeling the degraded-but-
// operational behavior that multi-path topologies such as fat trees and
// tori were designed for.
//
// Mutators publish a fresh immutable (failure table, tree cache)
// snapshot instead of editing in place, so they are safe to run
// concurrently with Dist and RouteAppend: a reader that raced with
// DisableEdge walks either the old failure set's trees or the new
// one's, never a mix.

// DisableEdge removes edge e from routing. It reports an error if e is
// out of range or already disabled. Routing caches are invalidated.
func (g *Graph) DisableEdge(e int) error {
	if e < 0 || e >= len(g.edges) {
		return fmt.Errorf("topology: edge %d out of range", e)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.routing.Load().down.has(e) {
		return fmt.Errorf("topology: edge %d already disabled", e)
	}
	g.setDown(e, true)
	return nil
}

// EnableEdge restores a previously disabled edge.
func (g *Graph) EnableEdge(e int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.routing.Load().down.has(e) {
		return fmt.Errorf("topology: edge %d is not disabled", e)
	}
	g.setDown(e, false)
	return nil
}

// setDown publishes a copy of the failure table, one entry per edge,
// with edge e marked down or up; a table with no edge down is nil.
// Callers hold g.mu.
func (g *Graph) setDown(e int, isDown bool) {
	down := make(edgeSet, len(g.edges))
	copy(down, g.routing.Load().down)
	down[e] = isDown
	if !slices.Contains(down, true) {
		down = nil
	}
	g.publish(down)
}

// publish swaps in a new routing snapshot with an empty tree slot per
// vertex. Callers hold g.mu.
func (g *Graph) publish(down edgeSet) {
	g.routing.Store(&routeState{down: down, trees: make([]treeEntry, len(g.verts))})
}

// FailCoreLinks disables up to n switch-to-switch links, trying them in
// edge order and skipping any that is already down or whose loss would
// disconnect an endpoint. It reports how many links it disabled — fewer
// than n when the remaining links are all needed for connectivity.
func (g *Graph) FailCoreLinks(n int) int {
	failed := 0
	for e, ed := range g.edges {
		if failed >= n {
			break
		}
		if g.verts[ed.A].Endpoint || g.verts[ed.B].Endpoint || g.DisableEdge(e) != nil {
			continue
		}
		if !g.AllEndpointsConnected() {
			_ = g.EnableEdge(e) // cannot fail: e was disabled just above
			continue
		}
		failed++
	}
	return failed
}

// DisabledEdges returns the number of currently disabled edges.
func (g *Graph) DisabledEdges() int {
	n := 0
	for _, d := range g.routing.Load().down {
		if d {
			n++
		}
	}
	return n
}

// AllEndpointsConnected reports whether every endpoint pair remains
// mutually reachable — the health check a degraded fabric runs before
// admitting traffic.
func (g *Graph) AllEndpointsConnected() bool {
	if len(g.endpoints) == 0 {
		return false
	}
	t := g.tree(g.routing.Load(), g.endpoints[0])
	for _, ep := range g.endpoints {
		if t.rank[ep] < 0 {
			return false
		}
	}
	return true
}
