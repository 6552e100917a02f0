package sched

import (
	"fmt"

	"northstar/internal/sim"
)

// GangConfig parameterizes gang scheduling: an Ousterhout matrix of
// Slots rows, each row a space-sharing partition of the cluster, rows
// activated round-robin for Quantum at a time. All processes of a job
// run in the same row (co-scheduled), so jobs see a dedicated machine at
// 1/active-rows speed.
type GangConfig struct {
	// Quantum is the time slice (default 60 s).
	Quantum sim.Time
	// Slots is the number of matrix rows (multiprogramming level,
	// default 4).
	Slots int
	// SwitchOverhead is lost time per row switch (default 1% of the
	// quantum), modeling coordinated context-switch cost.
	SwitchOverhead sim.Time
}

func (c GangConfig) withDefaults() GangConfig {
	if c.Quantum == 0 {
		c.Quantum = 60 * sim.Second
	}
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.SwitchOverhead == 0 {
		c.SwitchOverhead = c.Quantum / 100
	}
	return c
}

// Gang runs jobs under gang scheduling. For gang runs, a job's Start is
// defined as End - Runtime (the "effective start"), so Wait and
// BoundedSlowdown measure total response-time dilation, comparable with
// the space-sharing policies.
type gangJob struct {
	job       *Job
	remaining sim.Time
}

// SimulateGang runs jobs (sorted by submit) through a gang scheduler on
// nodes nodes. Jobs are mutated in place.
func SimulateGang(nodes int, jobs []*Job, cfg GangConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if !finite(cfg.Quantum) || !finite(cfg.SwitchOverhead) ||
		cfg.Quantum <= 0 || cfg.Slots <= 0 || cfg.SwitchOverhead < 0 || cfg.SwitchOverhead >= cfg.Quantum {
		return Result{}, fmt.Errorf("sched: invalid gang config %+v", cfg)
	}
	sortBySubmit(jobs)
	if err := validateJobs(nodes, jobs); err != nil {
		return Result{}, err
	}

	slotUsed := make([]int, cfg.Slots)
	slotJobs := make([][]*gangJob, cfg.Slots)
	var queue []*gangJob
	next := 0 // next arrival index
	nActive := 0
	now := sim.Time(0)
	row := 0
	completed := 0

	place := func(g *gangJob) bool {
		for s := 0; s < cfg.Slots; s++ {
			if slotUsed[s]+g.job.Nodes <= nodes {
				slotUsed[s] += g.job.Nodes
				slotJobs[s] = append(slotJobs[s], g)
				nActive++
				return true
			}
		}
		return false
	}
	admit := func() {
		for len(queue) > 0 {
			if !place(queue[0]) {
				return
			}
			queue = queue[1:]
		}
	}

	for completed < len(jobs) {
		// Admit arrivals up to now.
		for next < len(jobs) && jobs[next].Submit <= now {
			g := &gangJob{job: jobs[next], remaining: jobs[next].Runtime}
			queue = append(queue, g)
			next++
		}
		admit()
		if nActive == 0 {
			// Idle: jump to the next arrival.
			if next >= len(jobs) {
				return Result{}, fmt.Errorf("sched: gang stalled with %d jobs unfinished", len(jobs)-completed)
			}
			now = jobs[next].Submit
			continue
		}
		// Find the next non-empty row round-robin.
		for len(slotJobs[row]) == 0 {
			row = (row + 1) % cfg.Slots
		}
		// Run that row for one quantum (minus switch overhead),
		// compacting finished jobs out of the row in place.
		service := cfg.Quantum - cfg.SwitchOverhead
		endOfQuantum := now + cfg.Quantum
		still := slotJobs[row][:0]
		for _, g := range slotJobs[row] {
			if g.remaining <= service {
				g.job.End = now + cfg.SwitchOverhead + g.remaining
				g.job.Start = g.job.End - g.job.Runtime
				g.remaining = 0
				slotUsed[row] -= g.job.Nodes
				nActive--
				completed++
			} else {
				g.remaining -= service
				still = append(still, g)
			}
		}
		for i := len(still); i < len(slotJobs[row]); i++ {
			slotJobs[row][i] = nil
		}
		slotJobs[row] = still
		now = endOfQuantum
		row = (row + 1) % cfg.Slots
	}
	return measure(fmt.Sprintf("gang-%d", cfg.Slots), nodes, jobs), nil
}
