//go:build !race

package main

import "testing"

// The tests' runs use a 64-rank collectives machine, because the race
// detector takes the benchmark's 1024-rank one past 4 GB. This test,
// left out of race builds, runs one iteration of the benchmark's own
// machine against its pinned end time.
func TestCollectivesBenchReference(t *testing.T) {
	w, err := newCollectives(benchSizes)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{size: benchSizes}
	w.iteration(e, nil)
	if e.attempted.Load() != 1 || e.failed.Load() != 0 {
		t.Fatalf("attempted %d, failed %d: %v", e.attempted.Load(), e.failed.Load(), e.errs)
	}
}
