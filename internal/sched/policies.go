package sched

import (
	"fmt"
	"sort"

	"northstar/internal/sim"
)

// Policy decides which queued jobs to start when cluster state changes.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Pick returns the queued jobs to start now. It must return a subset
	// of queue whose widths sum to at most free.
	Pick(now sim.Time, free int, queue, running []*Job) []*Job
}

// Simulate runs jobs (sorted by submit time) through policy p on a
// cluster of the given node count, filling in each job's Start and End.
// Jobs are mutated in place.
func Simulate(nodes int, jobs []*Job, p Policy) (Result, error) {
	sortBySubmit(jobs)
	if err := validateJobs(nodes, jobs); err != nil {
		return Result{}, err
	}
	k := sim.New(1)
	free := nodes
	var queue, running []*Job

	var dispatch func()
	dispatch = func() {
		picks := p.Pick(k.Now(), free, queue, running)
		for _, j := range picks {
			if j.Nodes > free {
				panic(fmt.Sprintf("sched: policy %s started job %d (%d nodes) with %d free",
					p.Name(), j.ID, j.Nodes, free))
			}
			queue = removeJob(queue, j)
			j.Start = k.Now()
			j.End = j.Start + j.Runtime
			free -= j.Nodes
			running = append(running, j)
			j := j
			k.At(j.End, func() {
				free += j.Nodes
				running = removeJob(running, j)
				dispatch()
			})
		}
	}
	for _, j := range jobs {
		j := j
		k.At(j.Submit, func() {
			queue = append(queue, j)
			dispatch()
		})
	}
	k.Run()
	if len(queue) > 0 || len(running) > 0 {
		return Result{}, fmt.Errorf("sched: %s left %d queued, %d running", p.Name(), len(queue), len(running))
	}
	return measure(p.Name(), nodes, jobs), nil
}

func removeJob(list []*Job, j *Job) []*Job {
	for i, x := range list {
		if x == j {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	panic("sched: job not in list")
}

// FCFS starts jobs strictly in arrival order: the head of the queue
// blocks everything behind it until it fits.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy.
func (FCFS) Pick(now sim.Time, free int, queue, running []*Job) []*Job {
	var picks []*Job
	for _, j := range queue {
		if j.Nodes > free {
			break
		}
		picks = append(picks, j)
		free -= j.Nodes
	}
	return picks
}

// EASY is aggressive backfilling (Lifka's EASY scheduler): the head of
// the queue gets a reservation at the earliest time enough nodes free up
// (by user estimates); any later job may jump ahead if it fits now and
// does not delay that reservation — it either completes before the
// shadow time or uses only nodes the head doesn't need.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy-backfill" }

// Pick implements Policy.
func (EASY) Pick(now sim.Time, free int, queue, running []*Job) []*Job {
	var picks []*Job
	// Start in order while the head fits.
	i := 0
	for ; i < len(queue); i++ {
		if queue[i].Nodes > free {
			break
		}
		picks = append(picks, queue[i])
		free -= queue[i].Nodes
	}
	if i >= len(queue) {
		return picks
	}
	head := queue[i]

	// Reservation for the blocked head: walk running jobs (plus the ones
	// just picked) by estimated completion until enough nodes free up.
	type rel struct {
		end   sim.Time
		nodes int
	}
	rels := make([]rel, 0, len(running)+len(picks))
	for _, j := range running {
		rels = append(rels, rel{j.Start + j.Estimate, j.Nodes})
	}
	for _, j := range picks {
		rels = append(rels, rel{now + j.Estimate, j.Nodes})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].end < rels[b].end })
	avail := free
	shadow := sim.Forever
	extra := 0
	for _, rl := range rels {
		avail += rl.nodes
		if avail >= head.Nodes {
			shadow = rl.end
			extra = avail - head.Nodes
			break
		}
	}
	if free >= head.Nodes { // cannot happen (head didn't fit), defensive
		return picks
	}
	// Backfill jobs behind the head.
	for _, j := range queue[i+1:] {
		if j.Nodes > free {
			continue
		}
		fitsBefore := now+j.Estimate <= shadow
		fitsBeside := j.Nodes <= extra
		if fitsBefore || fitsBeside {
			picks = append(picks, j)
			free -= j.Nodes
			if !fitsBefore {
				extra -= j.Nodes
			}
		}
	}
	return picks
}

// Conservative is conservative backfilling: every queued job holds a
// reservation at its earliest feasible start (by estimates), and a job
// may only backfill if doing so delays no earlier reservation. It trades
// some of EASY's throughput for predictability.
type Conservative struct{}

// Name implements Policy.
func (Conservative) Name() string { return "conservative" }

// Pick implements Policy.
func (Conservative) Pick(now sim.Time, free int, queue, running []*Job) []*Job {
	// The profile starts from total capacity; running jobs then occupy
	// their nodes until their estimated ends.
	total := free
	for _, j := range running {
		total += j.Nodes
	}
	// Size the breakpoint arrays for the reservations about to be laid
	// down (two breakpoints each) so split never regrows them.
	prof := newProfileCap(now, total, 2*(len(running)+len(queue))+2)
	for _, j := range running {
		prof.reserve(now, j.Start+j.Estimate, j.Nodes)
	}
	var picks []*Job
	for _, j := range queue {
		start := prof.earliest(j.Nodes, j.Estimate)
		prof.reserve(start, start+j.Estimate, j.Nodes)
		if start == now {
			picks = append(picks, j)
		}
	}
	return picks
}

// profile is a step function of free nodes over [now, forever), used by
// conservative backfill to place reservations.
type profile struct {
	times []sim.Time // breakpoints, ascending; times[0] = now
	free  []int      // free[i] applies on [times[i], times[i+1])
}

func newProfileCap(now sim.Time, free int, capHint int) *profile {
	times := make([]sim.Time, 2, capHint)
	times[0], times[1] = now, sim.Forever
	frees := make([]int, 1, capHint)
	frees[0] = free
	return &profile{times: times, free: frees}
}

// split ensures t is a breakpoint and returns its index.
func (p *profile) split(t sim.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	// Insert t between times[i-1] and times[i].
	p.times = append(p.times, 0)
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = p.free[i-1]
	return i
}

// reserve subtracts n nodes over [from, to).
func (p *profile) reserve(from, to sim.Time, n int) {
	if to <= from {
		return
	}
	a := p.split(from)
	b := p.split(to)
	for i := a; i < b; i++ {
		p.free[i] -= n
	}
}

// earliest returns the first breakpoint time at which n nodes are free
// for the whole duration d.
func (p *profile) earliest(n int, d sim.Time) sim.Time {
	for i := 0; i < len(p.free); i++ {
		if p.free[i] < n {
			continue
		}
		start := p.times[i]
		end := start + d
		ok := true
		for j := i; j < len(p.free) && p.times[j] < end; j++ {
			if p.free[j] < n {
				ok = false
				break
			}
		}
		if ok {
			return start
		}
	}
	panic("sched: profile has no feasible slot") // unreachable: tail is full capacity minus running
}

// SJF is shortest-job-backfill: like EASY it never delays the head's
// reservation, but it considers backfill candidates shortest-estimate
// first, trading fairness for responsiveness — the classic alternative
// ordering studied alongside EASY.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf-backfill" }

// Pick implements Policy.
func (SJF) Pick(now sim.Time, free int, queue, running []*Job) []*Job {
	if len(queue) == 0 {
		return nil
	}
	// Reorder the backfill candidates (everything behind the blocked
	// head) by estimate, then reuse EASY's reservation logic.
	var picks []*Job
	i := 0
	for ; i < len(queue); i++ {
		if queue[i].Nodes > free {
			break
		}
		picks = append(picks, queue[i])
		free -= queue[i].Nodes
	}
	if i >= len(queue) {
		return picks
	}
	rest := append([]*Job{queue[i]}, append([]*Job{}, queue[i+1:]...)...)
	sort.SliceStable(rest[1:], func(a, b int) bool { return rest[1+a].Estimate < rest[1+b].Estimate })
	sub := EASY{}.Pick(now, free, rest, append(append([]*Job{}, running...), picks...))
	// EASY's sub-pick may include jobs already chosen; it cannot, since
	// `rest` excludes them — append directly.
	return append(picks, sub...)
}
