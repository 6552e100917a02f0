package sched

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"northstar/internal/sim"
)

func mkJob(id int, submit, runtime sim.Time, nodes int) *Job {
	return &Job{ID: id, Submit: submit, Runtime: runtime, Estimate: runtime, Nodes: nodes}
}

func TestGenerateTraceShape(t *testing.T) {
	jobs, err := GenerateTrace(TraceConfig{Jobs: 2000, MaxNodes: 128, Load: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2000 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	pow2 := 0
	var prev sim.Time
	for _, j := range jobs {
		if j.Nodes < 1 || j.Nodes > 128 {
			t.Fatalf("job %d width %d", j.ID, j.Nodes)
		}
		if j.Runtime < 30*sim.Second || j.Runtime > 18*sim.Hour {
			t.Fatalf("job %d runtime %v", j.ID, j.Runtime)
		}
		if j.Estimate < j.Runtime || j.Estimate > 5*j.Runtime {
			t.Fatalf("job %d estimate %v for runtime %v", j.ID, j.Estimate, j.Runtime)
		}
		if j.Submit < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = j.Submit
		if j.Nodes&(j.Nodes-1) == 0 {
			pow2++
		}
	}
	if frac := float64(pow2) / 2000; frac < 0.7 {
		t.Errorf("power-of-two widths = %.2f, want >= 0.7", frac)
	}
}

func TestGenerateTraceOfferedLoad(t *testing.T) {
	jobs, err := GenerateTrace(TraceConfig{Jobs: 5000, MaxNodes: 128, Load: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var work float64
	for _, j := range jobs {
		work += float64(j.Nodes) * float64(j.Runtime)
	}
	span := float64(jobs[len(jobs)-1].Submit)
	offered := work / (128 * span)
	if offered < 0.5 || offered > 0.95 {
		t.Errorf("offered load = %.2f, want ~0.7", offered)
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	// Validate applies the runtime defaults itself, as GenerateTrace does.
	if err := (TraceConfig{Jobs: 10, MaxNodes: 8, Load: 0.5}).Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	nan := sim.Time(math.NaN())
	bad := []TraceConfig{
		{Jobs: 0, MaxNodes: 8, Load: 0.5},
		{Jobs: 10, MaxNodes: 0, Load: 0.5},
		{Jobs: 10, MaxNodes: 8, Load: 0},
		{Jobs: 10, MaxNodes: 8, Load: 3},
		{Jobs: 10, MaxNodes: 8, Load: math.NaN()},
		{Jobs: 10, MaxNodes: 8, Load: math.Inf(1)},
		{Jobs: 10, MaxNodes: 8, Load: 0.5, MinRuntime: 100, MaxRuntime: 10},
		{Jobs: 10, MaxNodes: 8, Load: 0.5, MaxRuntime: 10}, // below the 30 s default minimum
		{Jobs: 10, MaxNodes: 8, Load: 0.5, MinRuntime: nan},
		{Jobs: 10, MaxNodes: 8, Load: 0.5, MaxRuntime: sim.Time(math.Inf(1))},
	}
	for i, cfg := range bad {
		if _, err := GenerateTrace(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestFCFSOrdering(t *testing.T) {
	// Head job blocks: job 1 needs the whole machine; job 2 (1 node,
	// arrives later) must NOT start before job 1 under FCFS.
	jobs := []*Job{
		mkJob(0, 0, 100, 4),
		mkJob(1, 1, 100, 4),
		mkJob(2, 2, 10, 1),
	}
	res, err := Simulate(4, jobs, FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[2].Start < jobs[1].Start {
		t.Errorf("FCFS let job 2 (start %v) overtake job 1 (start %v)", jobs[2].Start, jobs[1].Start)
	}
	if res.Utilization <= 0 {
		t.Errorf("utilization = %g", res.Utilization)
	}
}

func TestEASYBackfillsHarmlessJob(t *testing.T) {
	// Job 0 holds 3 of 4 nodes until t=100. Job 1 (4 nodes) blocks as
	// head. Job 2 (1 node, 10 s <= shadow) should backfill into the free
	// node immediately under EASY.
	jobs := []*Job{
		mkJob(0, 0, 100, 3),
		mkJob(1, 1, 100, 4),
		mkJob(2, 2, 10, 1),
	}
	if _, err := Simulate(4, jobs, EASY{}); err != nil {
		t.Fatal(err)
	}
	if jobs[2].Start != 2 {
		t.Errorf("EASY started the backfill job at %v, want 2 (immediately)", jobs[2].Start)
	}
	// And the reserved head must still start on time (t=100).
	if jobs[1].Start != 100 {
		t.Errorf("head job started at %v, want 100", jobs[1].Start)
	}
}

func TestEASYDoesNotDelayHead(t *testing.T) {
	// A long narrow job must NOT backfill if it would push back the
	// head's reservation: 2-node cluster, job 0 (2 nodes) till 100,
	// job 1 (2 nodes) reserved at 100, job 2 (1 node, 1000 s) would
	// delay it.
	jobs := []*Job{
		mkJob(0, 0, 100, 2),
		mkJob(1, 1, 100, 2),
		mkJob(2, 2, 1000, 1),
	}
	if _, err := Simulate(2, jobs, EASY{}); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Start != 100 {
		t.Errorf("head started at %v, want exactly 100", jobs[1].Start)
	}
	if jobs[2].Start < 100 {
		t.Errorf("harmful backfill: job 2 started at %v", jobs[2].Start)
	}
}

func TestConservativeBackfills(t *testing.T) {
	jobs := []*Job{
		mkJob(0, 0, 100, 3),
		mkJob(1, 1, 100, 4),
		mkJob(2, 2, 10, 1),
	}
	if _, err := Simulate(4, jobs, Conservative{}); err != nil {
		t.Fatal(err)
	}
	if jobs[2].Start != 2 {
		t.Errorf("conservative started backfill job at %v, want 2", jobs[2].Start)
	}
	if jobs[1].Start != 100 {
		t.Errorf("reserved job started at %v, want 100", jobs[1].Start)
	}
}

// TestBackfillConcurrentSimulations runs conservative and EASY
// simulations on several goroutines at once, as E8 does, so that -race
// checks the pools their picks share; each must match a sequential run.
func TestBackfillConcurrentSimulations(t *testing.T) {
	trace, err := GenerateTrace(TraceConfig{Jobs: 300, MaxNodes: 32, Load: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{Conservative{}, EASY{}} {
		want, err := Simulate(32, cloneJobs(trace), p)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]Result, 4)
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = Simulate(32, cloneJobs(trace), p)
			}()
		}
		wg.Wait()
		for i, got := range results {
			if errs[i] != nil || got != want {
				t.Errorf("%s, goroutine %d: %+v, %v; sequential run %+v", p.Name(), i, got, errs[i], want)
			}
		}
	}
}

func TestBackfillImprovesOverFCFS(t *testing.T) {
	// On a realistic trace at high load, EASY must beat FCFS on both
	// utilization and slowdown — the claim of E8.
	trace, err := GenerateTrace(TraceConfig{Jobs: 1500, MaxNodes: 64, Load: 0.85, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := Simulate(64, cloneJobs(trace), FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	ez, err := Simulate(64, cloneJobs(trace), EASY{})
	if err != nil {
		t.Fatal(err)
	}
	if ez.Utilization <= fc.Utilization {
		t.Errorf("EASY utilization %.3f <= FCFS %.3f", ez.Utilization, fc.Utilization)
	}
	if ez.MeanBoundedSlowdown >= fc.MeanBoundedSlowdown {
		t.Errorf("EASY slowdown %.1f >= FCFS %.1f", ez.MeanBoundedSlowdown, fc.MeanBoundedSlowdown)
	}
}

func cloneJobs(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		cp.Start, cp.End = 0, 0
		out[i] = &cp
	}
	return out
}

// Property: for every policy, on random traces (1) capacity is never
// exceeded, (2) no job starts before submission, (3) every job runs for
// exactly its runtime, (4) all jobs complete.
func TestSchedulingInvariantsProperty(t *testing.T) {
	policies := []Policy{FCFS{}, EASY{}, Conservative{}}
	prop := func(seed int64, rawNodes uint8, rawJobs uint8) bool {
		nodes := int(rawNodes%60) + 4
		njobs := int(rawJobs%80) + 5
		trace, err := GenerateTrace(TraceConfig{Jobs: njobs, MaxNodes: nodes, Load: 0.9, Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range policies {
			jobs := cloneJobs(trace)
			if _, err := Simulate(nodes, jobs, p); err != nil {
				return false
			}
			if !checkSchedule(nodes, jobs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func near(a, b sim.Time) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+float64(b))
}

// checkSchedule verifies the capacity and causality invariants.
func checkSchedule(nodes int, jobs []*Job) bool {
	type ev struct {
		t     sim.Time
		delta int
	}
	var evs []ev
	for _, j := range jobs {
		// End = Start + Runtime in float64, so compare with a relative
		// epsilon rather than exactly.
		if j.Start < j.Submit || !near(j.End-j.Start, j.Runtime) {
			return false
		}
		evs = append(evs, ev{j.Start, j.Nodes}, ev{j.End, -j.Nodes})
	}
	// Sweep: releases before acquisitions at equal times.
	for swapped := true; swapped; {
		swapped = false
		for i := 1; i < len(evs); i++ {
			if evs[i].t < evs[i-1].t || (evs[i].t == evs[i-1].t && evs[i].delta < evs[i-1].delta) {
				evs[i], evs[i-1] = evs[i-1], evs[i]
				swapped = true
			}
		}
	}
	used := 0
	for _, e := range evs {
		used += e.delta
		if used > nodes {
			return false
		}
	}
	return true
}

func TestGangCompletesAllJobs(t *testing.T) {
	trace, err := GenerateTrace(TraceConfig{Jobs: 300, MaxNodes: 32, Load: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateGang(32, trace, GangConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 300 {
		t.Fatalf("result covers %d jobs", res.Jobs)
	}
	for _, j := range trace {
		if j.End <= j.Submit {
			t.Fatalf("job %d never ran: end %v", j.ID, j.End)
		}
		if j.End-j.Submit < j.Runtime {
			t.Fatalf("job %d finished faster than its runtime", j.ID)
		}
	}
}

func TestGangDilatesShortJobsLessThanQueueing(t *testing.T) {
	// A short job submitted behind a monster gets service immediately
	// under gang (time slicing) instead of waiting in line.
	jobs := []*Job{
		mkJob(0, 0, 10*3600, 4),
		mkJob(1, 1, 60, 4),
	}
	if _, err := SimulateGang(4, cloneJobs(jobs), GangConfig{Quantum: 60}); err != nil {
		t.Fatal(err)
	}
	gangJobs := cloneJobs(jobs)
	if _, err := SimulateGang(4, gangJobs, GangConfig{Quantum: 60}); err != nil {
		t.Fatal(err)
	}
	fcfsJobs := cloneJobs(jobs)
	if _, err := Simulate(4, fcfsJobs, FCFS{}); err != nil {
		t.Fatal(err)
	}
	if gangJobs[1].End >= fcfsJobs[1].End {
		t.Errorf("gang finished the short job at %v, FCFS at %v; gang should be sooner",
			gangJobs[1].End, fcfsJobs[1].End)
	}
}

func TestGangConfigValidation(t *testing.T) {
	nan := sim.Time(math.NaN())
	for _, cfg := range []GangConfig{
		{Quantum: 60, SwitchOverhead: 61},
		// A NaN quantum or overhead once passed validation and the
		// simulation never returned.
		{Quantum: nan},
		{SwitchOverhead: nan},
		{Quantum: sim.Time(math.Inf(1)), SwitchOverhead: 1},
	} {
		if _, err := SimulateGang(4, []*Job{mkJob(0, 0, 10, 1)}, cfg); err == nil {
			t.Errorf("gang config %+v accepted", cfg)
		}
	}
}

func TestSimulateRejectsBadJobs(t *testing.T) {
	nan, inf := sim.Time(math.NaN()), sim.Time(math.Inf(1))
	cases := [][]*Job{
		{mkJob(0, 0, 10, 9)},                          // wider than cluster
		{mkJob(0, 0, 0, 1)},                           // zero runtime
		{{ID: 0, Runtime: 10, Estimate: 5, Nodes: 1}}, // estimate < runtime
		// Non-finite times once reached the kernel, which panicked on a
		// NaN event time, or conservative backfill's profile, which
		// panicked on an infinite end.
		{mkJob(0, nan, 10, 1)},
		{mkJob(0, 0, nan, 1)},
		{mkJob(0, 0, 10, 1), mkJob(1, 5, inf, 1)},
		{{ID: 0, Runtime: 10, Estimate: inf, Nodes: 1}},
	}
	for i, jobs := range cases {
		for _, p := range []Policy{FCFS{}, EASY{}, Conservative{}} {
			if _, err := Simulate(8, cloneJobs(jobs), p); err == nil {
				t.Errorf("case %d accepted by %s", i, p.Name())
			}
		}
		if _, err := SimulateGang(8, cloneJobs(jobs), GangConfig{}); err == nil {
			t.Errorf("case %d accepted by gang", i)
		}
	}
}

func TestResultString(t *testing.T) {
	jobs := []*Job{mkJob(0, 0, 10, 1)}
	res, err := Simulate(2, jobs, FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "fcfs") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestBoundedSlowdown(t *testing.T) {
	j := &Job{Submit: 0, Start: 90, End: 100, Runtime: 10, Nodes: 1}
	if got := j.BoundedSlowdown(); got != 10 {
		t.Errorf("bounded slowdown = %g, want 10", got)
	}
	// Very short job: bounded by tau=10s.
	s := &Job{Submit: 0, Start: 10, End: 11, Runtime: 1, Nodes: 1}
	if got := s.BoundedSlowdown(); got != 1.1 {
		t.Errorf("short-job slowdown = %g, want 1.1", got)
	}
}

func BenchmarkEASY(b *testing.B) {
	trace, err := GenerateTrace(TraceConfig{Jobs: 1000, MaxNodes: 128, Load: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(128, cloneJobs(trace), EASY{}); err != nil {
			b.Fatal(err)
		}
	}
}
