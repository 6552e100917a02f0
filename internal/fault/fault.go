// Package fault models failures and recovery at cluster scale — the
// keynote's warning that "as system scale explodes … the software tools
// to manage them will take on new responsibilities [including] fault
// recovery". It provides: node-lifetime distributions aggregated to
// system MTBF (analytic for exponential, Monte Carlo for Weibull and
// friends), machine availability under repair, and a checkpoint/restart
// simulator validated against the Young/Daly optimal-interval formulas.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"northstar/internal/mc"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

// System describes the failure behavior of an N-node cluster whose nodes
// fail independently with the given lifetime distribution and are
// repaired with the given repair-time distribution.
type System struct {
	Nodes    int
	Lifetime stats.Dist
	Repair   stats.Dist
}

// Validate checks the system's parameters.
func (s System) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("fault: system needs nodes > 0")
	}
	if s.Lifetime == nil {
		return fmt.Errorf("fault: system needs a lifetime distribution")
	}
	if err := stats.Validate(s.Lifetime); err != nil {
		return err
	}
	if s.Repair != nil {
		if err := stats.Validate(s.Repair); err != nil {
			return err
		}
	}
	return nil
}

// MTBF returns the system mean time between failures in steady state:
// with N nodes failing independently at rate 1/mean-lifetime, failures
// arrive N times as often, so MTBF = mean-lifetime / N. (Exact for
// exponential lifetimes; the renewal-theory limit for others.)
func (s System) MTBF() sim.Time {
	return sim.Time(s.Lifetime.Mean() / float64(s.Nodes))
}

// FirstFailureMean estimates by Monte Carlo the mean time to the first
// failure among N fresh nodes — the quantity that matters to a job
// starting on a freshly booted partition. For exponential lifetimes it
// equals MTBF; for Weibull shape < 1 it is markedly shorter (infant
// mortality).
func (s System) FirstFailureMean(runs int, seed int64) sim.Time {
	return s.FirstFailureMeanSharded(nil, runs, seed, 0)
}

// FirstFailureMeanSharded is FirstFailureMean with explicit control over
// the worker pool and shard count (nil pool means mc.Default, shards <= 0
// means one shard per pool worker). Replication r draws from the stream
// seeded with stats.Substream(seed, r) and per-replication minima are
// reduced in index order, so the result is bit-identical for every pool
// size and shard count.
//
// Each replication samples the first-order statistic directly via
// stats.MinOf(Lifetime, Nodes): one draw per replication instead of
// Nodes draws for the closed-form families (Weibull, Exponential, …),
// making the cost independent of system size.
func (s System) FirstFailureMeanSharded(p *mc.Pool, runs int, seed int64, shards int) sim.Time {
	if runs <= 0 {
		// Matching Checkpoint.Simulate's runs check; without this the
		// division below returns NaN and poisons every number downstream.
		panic(fmt.Sprintf("fault: FirstFailureMean needs runs > 0, got %d", runs))
	}
	if p == nil {
		p = mc.Default()
	}
	first := stats.MinOf(s.Lifetime, s.Nodes)
	firsts := make([]float64, runs)
	mc.Replicate(p, shards, runs, seed, func(r int, rng *rand.Rand) {
		firsts[r] = first.Sample(rng)
	})
	var sum float64
	for _, f := range firsts {
		sum += f
	}
	if probe := newProbe(); probe != nil {
		probe.Estimated(int64(runs), 0, 0)
	}
	return sim.Time(sum / float64(runs))
}

// NodeAvailability returns the steady-state availability of one node:
// MTTF / (MTTF + MTTR). With no repair distribution it is 1.
func (s System) NodeAvailability() float64 {
	if s.Repair == nil {
		return 1
	}
	mttf := s.Lifetime.Mean()
	return mttf / (mttf + s.Repair.Mean())
}

// AllUpAvailability returns the probability that every node is up
// simultaneously — what a tightly coupled job without fault tolerance
// needs. It is NodeAvailability^N, which collapses exponentially with
// scale: the quantitative core of the keynote's fault-recovery claim.
func (s System) AllUpAvailability() float64 {
	return math.Pow(s.NodeAvailability(), float64(s.Nodes))
}

// YoungInterval returns Young's first-order optimal checkpoint interval
// sqrt(2 δ M) for checkpoint cost δ and system MTBF M.
func YoungInterval(delta, mtbf sim.Time) sim.Time {
	if delta <= 0 || mtbf <= 0 {
		panic("fault: Young interval needs positive inputs")
	}
	return sim.Time(math.Sqrt(2 * float64(delta) * float64(mtbf)))
}

// DalyInterval returns Daly's higher-order optimum
// sqrt(2δM)·[1 + (1/3)·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ, valid for
// δ < 2M; it degrades gracefully to M for absurdly expensive
// checkpoints.
func DalyInterval(delta, mtbf sim.Time) sim.Time {
	if delta <= 0 || mtbf <= 0 {
		panic("fault: Daly interval needs positive inputs")
	}
	if float64(delta) >= 2*float64(mtbf) {
		return mtbf
	}
	x := float64(delta) / (2 * float64(mtbf))
	return sim.Time(math.Sqrt(2*float64(delta)*float64(mtbf))*(1+math.Sqrt(x)/3+x/9) - float64(delta))
}

// Checkpoint describes a checkpointed execution: Work seconds of useful
// compute, a checkpoint written every Interval of useful work at cost
// Overhead, restart cost Restart after each failure, and failures
// arriving exponentially with the given MTBF.
type Checkpoint struct {
	Work     sim.Time
	Interval sim.Time
	Overhead sim.Time
	Restart  sim.Time
	MTBF     sim.Time
}

// Validate checks parameters.
func (c Checkpoint) Validate() error {
	if c.Work <= 0 || c.Interval <= 0 || c.Overhead < 0 || c.Restart < 0 || c.MTBF <= 0 {
		return fmt.Errorf("fault: invalid checkpoint config %+v", c)
	}
	return nil
}

// Result summarizes checkpointed executions.
type Result struct {
	// MeanCompletion is the mean wall-clock time to finish Work.
	MeanCompletion sim.Time
	// UsefulFraction is Work / MeanCompletion — the efficiency.
	UsefulFraction float64
	// MeanFailures is the mean number of failures hit per run.
	MeanFailures float64
	// MeanLostWork is the mean work redone per run.
	MeanLostWork sim.Time
	// Censored reports that a run was cut off at the wall-clock cap
	// (100 x Work, i.e. below 1% efficiency) without finishing — the
	// configuration effectively never completes (e.g. segments much
	// longer than the MTBF). The censored run's partial tallies are
	// excluded: the other fields average only the runs that finished
	// before the cutoff, and are sim.Forever/zero if none did.
	Censored bool
}

// Simulate runs the checkpointed execution `runs` times and averages.
func (c Checkpoint) Simulate(runs int, seed int64) (Result, error) {
	return c.SimulateSharded(nil, runs, seed, 0)
}

// SimulateSharded is Simulate with explicit control over the worker pool
// and shard count (nil pool means mc.Default, shards <= 0 means one
// shard per pool worker). Replication r draws from the stream seeded
// with stats.Substream(seed, r) and per-replication tallies are reduced
// in index order, so the Result is bit-identical for every pool size and
// shard count.
func (c Checkpoint) SimulateSharded(p *mc.Pool, runs int, seed int64, shards int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if runs <= 0 {
		return Result{}, fmt.Errorf("fault: runs must be positive")
	}
	if p == nil {
		p = mc.Default()
	}
	return c.simulate(p, runs, seed, shards), nil
}

// oneRun holds the tallies of a single checkpointed execution, stored
// per replication so the sharded reduction can run in index order.
type oneRun struct {
	wall        float64
	lost        float64
	failures    int
	checkpoints int
}

// simulate is the validated core of SimulateSharded.
func (c Checkpoint) simulate(p *mc.Pool, runs int, seed int64, shards int) Result {
	fail := stats.Exponential{Rate: 1 / float64(c.MTBF)}
	wallCap := float64(c.Work) * 100
	recs := make([]oneRun, runs)
	// A run that hits the wall-clock cap censors the experiment: its
	// partial wall clock, failure count, and loss describe an unfinished
	// execution, so blending them into the "completed" averages would
	// bias every mean. ReplicateCensored preserves the sequential
	// break-at-first-cap semantics: only runs before the first capped one
	// enter the statistics.
	firstCapped := mc.ReplicateCensored(p, shards, runs, seed, func(r int, rng *rand.Rand) bool {
		t := 0.0    // wall clock
		done := 0.0 // checkpointed useful work
		runLost := 0.0
		runFailures, runCheckpoints := 0, 0
		capped := false
		nextFail := fail.Sample(rng)
		for done < float64(c.Work) {
			if t > wallCap {
				capped = true
				break
			}
			seg := float64(c.Interval)
			final := false
			if remaining := float64(c.Work) - done; remaining <= seg {
				seg = remaining
				final = true
			}
			segCost := seg
			if !final {
				segCost += float64(c.Overhead) // write the checkpoint
			}
			if t+segCost <= nextFail {
				// Segment (and its checkpoint) completes.
				t += segCost
				done += seg
				if !final {
					runCheckpoints++
				}
				continue
			}
			// Failure mid-segment: everything since the last checkpoint
			// is lost.
			runFailures++
			workedBeforeFailure := nextFail - t
			if workedBeforeFailure > seg {
				workedBeforeFailure = seg // failure hit during the checkpoint write
			}
			runLost += workedBeforeFailure
			t = nextFail + float64(c.Restart)
			nextFail = t + fail.Sample(rng)
		}
		recs[r] = oneRun{wall: t, lost: runLost, failures: runFailures, checkpoints: runCheckpoints}
		return capped
	})
	completed := firstCapped // every run below the first capped one finished
	if completed == 0 {
		return Result{MeanCompletion: sim.Forever, Censored: true}
	}
	var total, lost float64
	var failures, checkpoints int
	for r := 0; r < completed; r++ {
		total += recs[r].wall
		lost += recs[r].lost
		failures += recs[r].failures
		checkpoints += recs[r].checkpoints
	}
	if probe := newProbe(); probe != nil {
		// Every failure in a finished run was followed by a restart.
		probe.Estimated(int64(failures), int64(checkpoints), int64(failures))
	}
	mean := total / float64(completed)
	return Result{
		MeanCompletion: sim.Time(mean),
		UsefulFraction: float64(c.Work) / mean,
		MeanFailures:   float64(failures) / float64(completed),
		MeanLostWork:   sim.Time(lost / float64(completed)),
		Censored:       firstCapped < runs,
	}
}

// OptimalInterval searches a log-spaced grid of intervals for the one
// minimizing simulated completion time, returning the interval and its
// result. It is the empirical check on Young/Daly (experiment E10).
func (c Checkpoint) OptimalInterval(runs int, seed int64) (sim.Time, Result, error) {
	if err := c.Validate(); err != nil {
		return 0, Result{}, err
	}
	lo := float64(c.Overhead)
	if lo <= 0 {
		lo = float64(c.Work) / 1e6
	}
	// Intervals far beyond the MTBF never complete their segment; cap
	// the grid there (the optimum is orders of magnitude below it).
	hi := float64(c.Work)
	if m := 20 * float64(c.MTBF); m < hi {
		hi = m
	}
	if hi <= lo {
		hi = 2 * lo
	}
	if runs <= 0 {
		return 0, Result{}, fmt.Errorf("fault: runs must be positive")
	}
	// Validate was checked once above; the grid below goes straight to
	// the unvalidated core (only Interval varies, and every grid interval
	// is positive by construction), and the whole grid shares one pool
	// instead of spinning state per point. Grid points run concurrently;
	// each point's simulation is itself sharded, and because sharded
	// results are bit-identical for any shard count, the reduction below
	// (in grid order) is deterministic.
	pool := mc.Default()
	const points = 40
	results := make([]Result, points+1)
	intervals := make([]sim.Time, points+1)
	mc.ForEach(pool, points+1, func(i int) {
		ivl := sim.Time(lo * math.Pow(hi/lo, float64(i)/points))
		trial := c
		trial.Interval = ivl
		intervals[i] = ivl
		results[i] = trial.simulate(pool, runs, seed, 0)
	})
	best := Result{MeanCompletion: sim.Forever}
	var bestIvl sim.Time
	for i := 0; i <= points; i++ {
		if !results[i].Censored && results[i].MeanCompletion < best.MeanCompletion {
			best = results[i]
			bestIvl = intervals[i]
		}
	}
	if bestIvl == 0 {
		return 0, Result{}, fmt.Errorf("fault: no interval completes within the wall-clock cap")
	}
	return bestIvl, best, nil
}
