package fault

import (
	"fmt"
	"testing"

	"northstar/internal/mc"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

// testPools returns pools of width 1 (nil), 2 and 8, closed when the
// test ends.
func testPools(t *testing.T) []*mc.Pool {
	pools := []*mc.Pool{nil, mc.NewPool(1), mc.NewPool(7)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

// TestSimulateShardInvariance is the tentpole acceptance check: pools of
// width 1, 2 and 8 must produce bit-identical Results, including for a
// configuration that censors partway through the run set.
func TestSimulateShardInvariance(t *testing.T) {
	pools := testPools(t)
	configs := []Checkpoint{
		{Work: 7 * 24 * 3600, Interval: 4 * 3600, Overhead: 300, Restart: 600, MTBF: 24 * 3600},
		{Work: 1000, Interval: 100, Overhead: 1, Restart: 1, MTBF: 16}, // censors at seed 212
		{Work: 1e6, Interval: 1e6, Overhead: 10, Restart: 10, MTBF: 100},
	}
	for _, c := range configs {
		for _, seed := range []int64{1, 42, 212} {
			base, err := c.Simulate(nil, 100, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pools[1:] {
				got, err := c.Simulate(p, 100, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Errorf("config %+v seed %d: width %d %+v != width 1 %+v",
						c, seed, p.Workers(), got, base)
				}
			}
		}
	}
}

func TestFirstFailureMeanShardInvariance(t *testing.T) {
	pools := testPools(t)
	systems := []System{
		{Nodes: 64, Lifetime: stats.Exponential{Rate: 1.0 / (1000 * 3600)}},
		{Nodes: 512, Lifetime: stats.Weibull{Shape: 0.7, Scale: 1000 * 3600}},
	}
	for _, s := range systems {
		for _, seed := range []int64{7, 2020} {
			base := s.FirstFailureMean(nil, 500, seed)
			for _, p := range pools[1:] {
				if got := s.FirstFailureMean(p, 500, seed); got != base {
					t.Errorf("%+v seed %d: width %d %v != width 1 %v", s, seed, p.Workers(), got, base)
				}
			}
		}
	}
}

// TestOptimalIntervalDeterministicUnderPool pins that the parallel grid
// search returns the same interval and result on pools of width 1, 2
// and 8 — the grid reduction runs in grid order.
func TestOptimalIntervalDeterministicUnderPool(t *testing.T) {
	c := Checkpoint{
		Work:     168 * sim.Hour,
		Interval: sim.Hour,
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     12 * sim.Hour,
	}
	pools := testPools(t)
	ivl1, res1, err := c.OptimalInterval(nil, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pools[1:] {
		ivl, res, err := c.OptimalInterval(p, 60, 13)
		if err != nil {
			t.Fatal(err)
		}
		if ivl != ivl1 || res != res1 {
			t.Fatalf("width %d: OptimalInterval = (%v, %+v), want (%v, %+v)", p.Workers(), ivl, res, ivl1, res1)
		}
	}
}

// BenchmarkShardCheckpointSimulate measures the slowest Monte Carlo
// path's scaling: ns/replication of Checkpoint.Simulate on pools of
// width 1/2/4/8.
func BenchmarkShardCheckpointSimulate(b *testing.B) {
	c := Checkpoint{
		Work:     168 * sim.Hour,
		Interval: sim.Hour,
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     12 * sim.Hour,
	}
	const runs = 200
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := mc.NewPool(width - 1)
			defer p.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Simulate(p, runs, 42); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runs, "ns/rep")
		})
	}
}

// BenchmarkShardFirstFailureMean is the same scaling probe for the E9
// long pole (many cheap replications).
func BenchmarkShardFirstFailureMean(b *testing.B) {
	s := System{Nodes: 1000, Lifetime: stats.Weibull{Shape: 0.7, Scale: 1000 * 3600}}
	const runs = 2000
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := mc.NewPool(width - 1)
			defer p.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.FirstFailureMean(p, runs, 7)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runs, "ns/rep")
		})
	}
}
