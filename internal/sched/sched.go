// Package sched simulates cluster resource management — the keynote's
// claim that "software tools to manage them will take on new
// responsibilities" as system scale explodes. It provides a synthetic
// workload generator in the style of the Feitelson workload archive
// (power-of-two-biased widths, log-uniform runtimes, Poisson arrivals,
// padded user estimates) and four space-sharing/time-sharing policies:
// FCFS, EASY backfill, conservative backfill, and gang scheduling.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"northstar/internal/sim"
	"northstar/internal/stats"
)

// Job is one batch job in a trace. Submit/Nodes/Runtime/Estimate are
// inputs; Start/End are filled in by simulation.
type Job struct {
	ID     int
	Submit sim.Time
	// Nodes is the job's width (nodes held for its whole duration).
	Nodes int
	// Runtime is the true execution time.
	Runtime sim.Time
	// Estimate is the user-supplied runtime estimate (>= Runtime for
	// honest users; schedulers kill at the estimate, so generators pad).
	Estimate sim.Time

	Start sim.Time
	End   sim.Time
}

// Wait returns the job's queue wait.
func (j *Job) Wait() sim.Time { return j.Start - j.Submit }

// BoundedSlowdown returns max(1, (wait+runtime)/max(runtime, tau)) with
// the customary tau of 10 s, the standard responsiveness metric.
func (j *Job) BoundedSlowdown() float64 {
	const tau = 10 * sim.Second
	den := j.Runtime
	if den < tau {
		den = tau
	}
	s := float64(j.Wait()+j.Runtime) / float64(den)
	if s < 1 {
		return 1
	}
	return s
}

// TraceConfig parameterizes the synthetic workload generator.
type TraceConfig struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// MaxNodes is the cluster size jobs are sized against.
	MaxNodes int
	// Load is the offered utilization (node-seconds submitted per
	// node-second of wall clock), e.g. 0.7.
	Load float64
	// Seed drives all randomness.
	Seed int64
	// MinRuntime and MaxRuntime bound the log-uniform runtime
	// distribution (defaults 30 s and 18 h).
	MinRuntime, MaxRuntime sim.Time
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.MinRuntime == 0 {
		c.MinRuntime = 30 * sim.Second
	}
	if c.MaxRuntime == 0 {
		c.MaxRuntime = 18 * sim.Hour
	}
	return c
}

// Validate checks the configuration, with the runtime defaults applied.
func (c TraceConfig) Validate() error {
	c = c.withDefaults()
	if c.Jobs <= 0 {
		return fmt.Errorf("sched: trace needs jobs > 0")
	}
	if c.MaxNodes <= 0 {
		return fmt.Errorf("sched: trace needs max nodes > 0")
	}
	if !(c.Load > 0) || c.Load > 2 {
		return fmt.Errorf("sched: offered load %g out of (0, 2]", c.Load)
	}
	if err := stats.Validate(c.runtimes()); err != nil {
		return fmt.Errorf("sched: trace runtimes: %w", err)
	}
	return nil
}

// runtimes is the distribution GenerateTrace draws runtimes from.
func (c TraceConfig) runtimes() stats.LogUniform {
	return stats.LogUniform{Lo: float64(c.MinRuntime), Hi: float64(c.MaxRuntime)}
}

// GenerateTrace produces a synthetic job trace per cfg. Widths are
// power-of-two biased (75% exact powers of two, the strong mode observed
// in production logs), runtimes are log-uniform, arrivals are Poisson
// with the rate required to offer cfg.Load, and estimates pad the true
// runtime by a uniform 1–5x factor.
func GenerateTrace(cfg TraceConfig) ([]*Job, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	runDist := cfg.runtimes()

	maxExp := 0
	for 1<<uint(maxExp+1) <= cfg.MaxNodes {
		maxExp++
	}
	width := func() int {
		if rng.Float64() < 0.75 {
			return 1 << uint(rng.Intn(maxExp+1))
		}
		return 1 + rng.Intn(cfg.MaxNodes)
	}

	jobs := make([]*Job, cfg.Jobs)
	var totalWork float64 // node-seconds
	for i := range jobs {
		rt := sim.Time(runDist.Sample(rng))
		w := width()
		jobs[i] = &Job{
			ID:       i,
			Nodes:    w,
			Runtime:  rt,
			Estimate: rt * sim.Time(1+4*rng.Float64()),
		}
		totalWork += float64(w) * float64(rt)
	}
	// Poisson arrivals at the rate that offers cfg.Load.
	meanGap := totalWork / (float64(cfg.MaxNodes) * cfg.Load) / float64(cfg.Jobs)
	t := sim.Time(0)
	for _, j := range jobs {
		t += sim.Time(rng.ExpFloat64() * meanGap)
		j.Submit = t
	}
	return jobs, nil
}

// Result summarizes a scheduling run.
type Result struct {
	Policy string
	Nodes  int
	Jobs   int
	// Makespan is the completion time of the last job.
	Makespan sim.Time
	// Utilization is used node-seconds over Nodes x Makespan.
	Utilization float64
	// MeanWait and P95Wait summarize queue waits.
	MeanWait sim.Time
	P95Wait  sim.Time
	// MeanBoundedSlowdown is the standard responsiveness metric.
	MeanBoundedSlowdown float64
}

// String renders the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%-14s util=%5.1f%% wait(mean)=%v wait(p95)=%v bslow=%.1f makespan=%v",
		r.Policy, r.Utilization*100, r.MeanWait, r.P95Wait, r.MeanBoundedSlowdown, r.Makespan)
}

// measure computes a Result from completed jobs.
func measure(policy string, nodes int, jobs []*Job) Result {
	res := Result{Policy: policy, Nodes: nodes, Jobs: len(jobs)}
	var waits stats.Sample
	var slow stats.Summary
	var work float64
	for _, j := range jobs {
		if j.End > res.Makespan {
			res.Makespan = j.End
		}
		waits.Add(float64(j.Wait()))
		slow.Add(j.BoundedSlowdown())
		work += float64(j.Nodes) * float64(j.End-j.Start)
	}
	if res.Makespan > 0 {
		res.Utilization = work / (float64(nodes) * float64(res.Makespan))
	}
	res.MeanWait = sim.Time(waits.Mean())
	res.P95Wait = sim.Time(waits.Quantile(0.95))
	res.MeanBoundedSlowdown = slow.Mean()
	return res
}

// validateJobs checks a trace against a cluster size.
func validateJobs(nodes int, jobs []*Job) error {
	prev := sim.Time(0)
	for _, j := range jobs {
		if !finite(j.Submit) || !finite(j.Runtime) || !finite(j.Estimate) {
			return fmt.Errorf("sched: job %d has a non-finite time (submit %g, runtime %g, estimate %g)",
				j.ID, float64(j.Submit), float64(j.Runtime), float64(j.Estimate))
		}
		if j.Nodes <= 0 || j.Nodes > nodes {
			return fmt.Errorf("sched: job %d needs %d nodes on a %d-node cluster", j.ID, j.Nodes, nodes)
		}
		if j.Runtime <= 0 {
			return fmt.Errorf("sched: job %d has runtime %v", j.ID, j.Runtime)
		}
		if j.Estimate < j.Runtime {
			return fmt.Errorf("sched: job %d estimate %v below runtime %v", j.ID, j.Estimate, j.Runtime)
		}
		if j.Submit < prev {
			return fmt.Errorf("sched: jobs not sorted by submit time at job %d", j.ID)
		}
		prev = j.Submit
	}
	return nil
}

func finite(t sim.Time) bool { return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0) }

// sortBySubmit orders jobs by submission time (stable on ID).
func sortBySubmit(jobs []*Job) {
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Submit < jobs[k].Submit })
}
