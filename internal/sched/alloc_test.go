//go:build !race

package sched

import (
	"testing"

	"northstar/internal/sim"
)

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestBackfillPickAllocatesOnlyPicks: once the pools are warm, a
// conservative or EASY Pick that reserves for a blocked head allocates
// only the slice of jobs it returns — one allocation for one pick, none
// when nothing starts.
func TestBackfillPickAllocatesOnlyPicks(t *testing.T) {
	running := []*Job{
		{ID: 0, Nodes: 4, Start: 0, Estimate: 100},
		{ID: 1, Nodes: 6, Start: 0, Estimate: 200},
	}
	wide := &Job{ID: 2, Nodes: 8, Estimate: 300} // reserved at 100
	short := &Job{ID: 3, Nodes: 2, Estimate: 50} // backfills now
	long := &Job{ID: 4, Nodes: 6, Estimate: 500} // reserved later
	for _, p := range []Policy{Conservative{}, EASY{}} {
		for _, c := range []struct {
			queue  []*Job
			picks  int
			allocs float64
		}{
			{[]*Job{wide, short, long}, 1, 1},
			{[]*Job{wide, long}, 0, 0},
		} {
			var picks []*Job
			allocs := testing.AllocsPerRun(100, func() {
				picks = p.Pick(sim.Time(10), 6, c.queue, running)
			})
			if len(picks) != c.picks || allocs != c.allocs {
				t.Errorf("%s, queue of %d: %d picks in %v allocations, want %d in %v",
					p.Name(), len(c.queue), len(picks), allocs, c.picks, c.allocs)
			}
		}
	}
}
