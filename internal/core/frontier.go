package core

import (
	"sort"

	"northstar/internal/cluster"
	"northstar/internal/node"
	"northstar/internal/tech"
)

// FrontierPoint is one feasible configuration from the buyer's menu.
type FrontierPoint struct {
	Metrics cluster.Metrics
	// Score is the explorer's score (Explorer.Score) for the machine.
	Score float64
	// Pareto reports that no other menu entry is at least as cheap, at
	// least as frugal in power, and strictly higher-scoring.
	Pareto bool
}

// Frontier enumerates every architecture × fabric at the given year,
// fits each to the explorer's constraint, and returns the feasible menu
// sorted by descending score, with Pareto-optimal entries (over cost,
// power, and score simultaneously) marked. It is the buyer's menu the
// trajectory explorer optimizes over — useful for seeing *why* the
// explorer picks what it picks, and what the runner-up trade-offs were.
// An invalid year or constraint is an error, not an empty menu.
func (e Explorer) Frontier(r *tech.Roadmap, year float64) ([]FrontierPoint, error) {
	if err := node.CheckYear(year); err != nil {
		return nil, err
	}
	if err := e.Constraint.Validate(); err != nil {
		return nil, err
	}
	var all []FrontierPoint
	for _, a := range node.Arches() {
		for _, f := range cluster.Fabrics() {
			m, err := cluster.FitLargest(year, a, f, r, e.Constraint)
			if err != nil {
				continue // infeasible under this constraint
			}
			all = append(all, FrontierPoint{Metrics: m, Score: e.Score(m)})
		}
	}
	for i := range all {
		all[i].Pareto = true
		for j := range all {
			if i == j {
				continue
			}
			dominates := all[j].Metrics.CostDollars <= all[i].Metrics.CostDollars &&
				all[j].Metrics.PowerWatts <= all[i].Metrics.PowerWatts &&
				all[j].Score > all[i].Score
			if dominates {
				all[i].Pareto = false
				break
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	return all, nil
}
