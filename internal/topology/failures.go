package topology

import "fmt"

// Link-failure support: edges can be disabled (a failed cable, switch
// port, or — by disabling all of a switch's edges — a whole switch).
// Routing recomputes around disabled edges, modeling the degraded-but-
// operational behavior that multi-path topologies such as fat trees and
// tori were designed for.
//
// Mutators publish a fresh immutable (disabled set, tree cache)
// snapshot instead of editing in place, so they are safe to run
// concurrently with Dist/Route/Reachable: a reader that raced with
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
	old := g.routing.Load()
	if old.disabled[e] {
		return fmt.Errorf("topology: edge %d already disabled", e)
	}
	disabled := make(map[int]bool, len(old.disabled)+1)
	for k := range old.disabled {
		disabled[k] = true
	}
	disabled[e] = true
	g.publish(disabled)
	return nil
}

// EnableEdge restores a previously disabled edge.
func (g *Graph) EnableEdge(e int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.routing.Load()
	if !old.disabled[e] {
		return fmt.Errorf("topology: edge %d is not disabled", e)
	}
	var disabled map[int]bool
	if len(old.disabled) > 1 {
		disabled = make(map[int]bool, len(old.disabled)-1)
		for k := range old.disabled {
			if k != e {
				disabled[k] = true
			}
		}
	}
	g.publish(disabled)
	return nil
}

// publish swaps in a new routing snapshot with an empty tree cache.
// Callers hold g.mu.
func (g *Graph) publish(disabled map[int]bool) {
	g.routing.Store(&routeState{disabled: disabled, trees: make(map[int]*treeEntry)})
	g.numDisabled.Store(int64(len(disabled)))
}

// DisableVertex disables every edge at vertex v (a failed switch or
// NIC), returning the edges it disabled so the caller can re-enable
// them.
func (g *Graph) DisableVertex(v int) ([]int, error) {
	if v < 0 || v >= len(g.verts) {
		return nil, fmt.Errorf("topology: vertex %d out of range", v)
	}
	var out []int
	for _, he := range g.adj[v] {
		if !g.routing.Load().disabled[he.edge] {
			if err := g.DisableEdge(he.edge); err != nil {
				return out, err
			}
			out = append(out, he.edge)
		}
	}
	return out, nil
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
func (g *Graph) DisabledEdges() int { return int(g.numDisabled.Load()) }

// Reachable reports whether dst can be reached from src through enabled
// edges.
func (g *Graph) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	tree := g.tree(dst)
	return len(tree[src]) > 0
}

// AllEndpointsConnected reports whether every endpoint pair remains
// mutually reachable — the health check a degraded fabric runs before
// admitting traffic.
func (g *Graph) AllEndpointsConnected() bool {
	if len(g.endpoints) == 0 {
		return false
	}
	tree := g.tree(g.endpoints[0])
	for _, ep := range g.endpoints {
		if ep != g.endpoints[0] && len(tree[ep]) == 0 {
			return false
		}
	}
	return true
}
