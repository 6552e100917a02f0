package check

import (
	"testing"

	"northstar/internal/fault"
	"northstar/internal/mc"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

// Pool-width invariance is the metamorphic property the substream
// seeding contract guarantees: a Monte Carlo result is a pure function
// of (base seed, replication index), so running the same experiment on
// pools of width 1, 2, or 8 must produce bit-identical results — not
// statistically close, identical.

// widePools returns pools of width 2 and 8, closed when the test ends;
// each result is compared with the nil pool's, which runs inline.
func widePools(t *testing.T) []*mc.Pool {
	pools := []*mc.Pool{mc.NewPool(1), mc.NewPool(7)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

func TestMetamorphicCheckpointShardInvariance(t *testing.T) {
	pools := widePools(t)
	for _, mtbf := range []sim.Time{40 * sim.Hour, 6 * sim.Hour} {
		c := testCheckpoint(mtbf)
		base, err := c.Simulate(nil, 200, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pools {
			got, err := c.Simulate(p, 200, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Errorf("mtbf %v: width %d result %+v differs from width 1 %+v",
					mtbf, p.Workers(), got, base)
			}
		}
	}
}

func TestMetamorphicFirstFailureShardInvariance(t *testing.T) {
	pools := widePools(t)
	s := fault.System{Nodes: 1000, Lifetime: stats.Weibull{Shape: 0.7, Scale: float64(1000 * sim.Day)}}
	base := s.FirstFailureMean(nil, 2000, 7)
	for _, p := range pools {
		if got := s.FirstFailureMean(p, 2000, 7); got != base {
			t.Errorf("width %d mean %v differs from width 1 %v", p.Workers(), got, base)
		}
	}
}
