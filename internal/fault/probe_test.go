package fault

import (
	"math"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/stats"
)

// recFaultProbe sums the estimates reported to it. Each estimate reports
// on the goroutine that asked for it, so a plain struct is safe even
// when the replications run on pool helpers.
type recFaultProbe struct {
	calls                           int
	failures, checkpoints, restarts int64
}

func (r *recFaultProbe) Estimated(failures, checkpoints, restarts int64) {
	r.calls++
	r.failures += failures
	r.checkpoints += checkpoints
	r.restarts += restarts
}

// observe makes the provider hand out a fresh recorder until the test
// ends, and returns it.
func observe(t *testing.T) *recFaultProbe {
	rec := &recFaultProbe{}
	SetProbeProvider(func() Probe { return rec })
	t.Cleanup(func() { SetProbeProvider(nil) })
	return rec
}

func TestFirstFailureProbe(t *testing.T) {
	s := System{Nodes: 100, Lifetime: stats.Exponential{Rate: 1.0 / 3600}}
	const runs = 50
	for _, p := range testPools(t) {
		rec := observe(t)
		s.FirstFailureMean(p, runs, 42)
		if want := (recFaultProbe{calls: 1, failures: runs}); *rec != want {
			t.Errorf("width %d: probe recorded %+v, want %+v (one failure per replication)", p.Workers(), *rec, want)
		}
	}
}

func TestCheckpointProbe(t *testing.T) {
	c := Checkpoint{
		Work:     4000 * sim.Second,
		Interval: 1000 * sim.Second,
		Overhead: 10 * sim.Second,
		Restart:  30 * sim.Second,
		MTBF:     2000 * sim.Second,
	}
	const runs = 40
	for _, p := range testPools(t) {
		rec := observe(t)
		res, err := c.Simulate(p, runs, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Censored {
			t.Fatal("no run should hit the wall-clock cap")
		}
		checkEstimate(t, rec, res, runs)
		if rec.checkpoints == 0 {
			t.Errorf("width %d: no checkpoints recorded despite multiple segments per run", p.Workers())
		}
	}
}

// TestCensoredEstimateCountsOnlyAveragedRuns: segments five times the
// MTBF make some run hit the wall-clock cap. The estimate averages only
// the runs below the first capped one, and the probe must count exactly
// those — not the capped run, nor runs above it that other tasks
// started before the cap was seen.
func TestCensoredEstimateCountsOnlyAveragedRuns(t *testing.T) {
	c := Checkpoint{
		Work:     4000 * sim.Second,
		Interval: 2000 * sim.Second,
		Overhead: 10 * sim.Second,
		Restart:  300 * sim.Second,
		MTBF:     400 * sim.Second,
	}
	const runs = 200
	// Replication r draws the same stream whatever the run count, so the
	// first capped replication is the smallest n whose n-run estimate is
	// censored, less one.
	completed := 0
	for {
		res, err := c.Simulate(nil, completed+1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Censored {
			break
		}
		completed++
		if completed == runs {
			t.Fatal("no run hit the wall-clock cap")
		}
	}
	if completed == 0 {
		t.Fatal("the first run hit the cap: nothing to average")
	}
	// The uncensored estimate over the completed runs averages the same
	// replications as the censored one.
	want := observe(t)
	if _, err := c.Simulate(nil, completed, 7); err != nil {
		t.Fatal(err)
	}
	for _, p := range testPools(t) {
		rec := observe(t)
		res, err := c.Simulate(p, runs, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Censored {
			t.Fatalf("width %d: estimate not censored", p.Workers())
		}
		checkEstimate(t, rec, res, completed)
		if *rec != *want {
			t.Errorf("width %d: censored estimate recorded %+v, the %d runs it averages %+v", p.Workers(), *rec, completed, *want)
		}
	}
}

// checkEstimate checks that rec holds one estimate whose failures are
// the result's mean over the given number of averaged runs, each
// followed by a restart.
func checkEstimate(t *testing.T, rec *recFaultProbe, res Result, averaged int) {
	t.Helper()
	if rec.calls != 1 {
		t.Errorf("probe called %d times for one estimate, want 1", rec.calls)
	}
	if want := math.Round(res.MeanFailures * float64(averaged)); float64(rec.failures) != want {
		t.Errorf("probe failures = %d, want %v (%d runs x %v)", rec.failures, want, averaged, res.MeanFailures)
	}
	if rec.restarts != rec.failures {
		t.Errorf("restarts (%d) != failures (%d): every failure in a finished run restarts", rec.restarts, rec.failures)
	}
}

func TestProbeProviderRemoved(t *testing.T) {
	rec := observe(t)
	SetProbeProvider(nil)

	s := System{Nodes: 10, Lifetime: stats.Exponential{Rate: 1.0 / 3600}}
	s.FirstFailureMean(nil, 10, 1)
	if rec.calls != 0 {
		t.Fatalf("probe called %d times after provider removal, want 0", rec.calls)
	}
}

func timesNear(a, b sim.Time) bool { return floatsNear(float64(a), float64(b)) }

func floatsNear(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	return d <= 1e-9*m+1e-12
}
