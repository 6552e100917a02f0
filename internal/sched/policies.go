package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

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
	// Arrivals fire in submit order, which is jobs order, so one handler
	// admits the next job each time.
	arrived := 0
	arrive := func() {
		queue = append(queue, jobs[arrived])
		arrived++
		dispatch()
	}
	for _, j := range jobs {
		k.At(j.Submit, arrive)
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
	// slices.SortFunc runs the same pdqsort as sort.Slice, so equal ends
	// keep the order they always had.
	rp := releases.Get().(*[]release)
	rels := (*rp)[:0]
	for _, j := range running {
		rels = append(rels, release{j.Start + j.Estimate, j.Nodes})
	}
	for _, j := range picks {
		rels = append(rels, release{now + j.Estimate, j.Nodes})
	}
	slices.SortFunc(rels, func(a, b release) int { return cmp.Compare(a.end, b.end) })
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
	*rp = rels
	releases.Put(rp)
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

// release is when a running or just-picked job is estimated to end and
// the nodes it frees then.
type release struct {
	end   sim.Time
	nodes int
}

// releases recycles the release list of every EASY.Pick that reserves
// for a blocked head; simulations on different goroutines share it.
var releases = sync.Pool{New: func() any { return new([]release) }}

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
	prof := profiles.Get().(*profile)
	prof.init(now, total, 2*(len(running)+len(queue))+2)
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
	profiles.Put(prof)
	return picks
}

// profile is a step function of free nodes over [now, forever), used by
// conservative backfill to place reservations.
type profile struct {
	times []sim.Time // breakpoints, ascending; times[0] = now
	free  []int      // free[i] applies on [times[i], times[i+1])
}

// profiles recycles the profile of every Conservative.Pick; simulations
// on different goroutines share it.
var profiles = sync.Pool{New: func() any { return new(profile) }}

// init resets p to free nodes over [now, forever), with room for
// capHint breakpoints.
func (p *profile) init(now sim.Time, free int, capHint int) {
	if cap(p.times) < capHint {
		p.times = make([]sim.Time, 0, capHint)
		p.free = make([]int, 0, capHint)
	}
	p.times = append(p.times[:0], now, sim.Forever)
	p.free = append(p.free[:0], free)
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
// for the whole duration d. It makes one pass: when the window from
// breakpoint i first runs short at breakpoint j, every start from i to j
// also covers j, so the search resumes after j.
func (p *profile) earliest(n int, d sim.Time) sim.Time {
	for i := 0; i < len(p.free); i++ {
		if p.free[i] < n {
			continue
		}
		start := p.times[i]
		end := start + d
		j := i + 1
		for j < len(p.free) && p.times[j] < end && p.free[j] >= n {
			j++
		}
		if j == len(p.free) || p.times[j] >= end {
			return start
		}
		i = j
	}
	panic("sched: profile has no feasible slot") // unreachable: tail is full capacity minus running
}
