package experiments

import (
	"fmt"

	"northstar/internal/mc"
	"northstar/internal/sched"
)

// E8Scheduling reproduces claim C5: resource-management policies on a
// 128-node cluster under rising offered load.
func E8Scheduling(quick bool) (*Table, error) {
	nodes := 128
	jobs := 3000
	loads := []float64{0.6, 0.7, 0.8, 0.9}
	if quick {
		jobs = 400
		loads = []float64{0.7, 0.9}
	}
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Batch scheduling, %d nodes, %d synthetic jobs", nodes, jobs),
		Columns: []string{"load", "policy", "utilization", "mean-wait-min", "p95-wait-min", "bounded-slowdown"},
		Notes: []string{
			"expected shape: EASY/conservative beat FCFS on utilization and slowdown, most at high load; gang trades throughput for short-job responsiveness",
		},
	}
	// Traces are generated up front (cheap, sequential); then every
	// (load, policy) pair simulates as its own task on the mc pool. Each
	// task clones its load's trace — clones only read the shared trace —
	// so tasks are independent; rows are added in sweep order.
	traces := make([][]*sched.Job, len(loads))
	for li, load := range loads {
		trace, err := sched.GenerateTrace(sched.TraceConfig{
			Jobs: jobs, MaxNodes: nodes, Load: load, Seed: 20020923,
		})
		if err != nil {
			return nil, err
		}
		traces[li] = trace
	}
	const policies = 4 // FCFS, EASY, Conservative, gang
	results := make([]sched.Result, len(loads)*policies)
	errs := make([]error, len(results))
	mc.ForEach(mc.Default(), len(results), func(i int) {
		li, pi := i/policies, i%policies
		clone := make([]*sched.Job, len(traces[li]))
		for k, j := range traces[li] {
			cp := *j
			cp.Start, cp.End = 0, 0
			clone[k] = &cp
		}
		if pi == policies-1 {
			results[i], errs[i] = sched.SimulateGang(nodes, clone, sched.GangConfig{})
			return
		}
		p := []sched.Policy{sched.FCFS{}, sched.EASY{}, sched.Conservative{}}[pi]
		results[i], errs[i] = sched.Simulate(nodes, clone, p)
	})
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(
			fmt.Sprintf("%.2f", loads[i/policies]),
			res.Policy,
			res.Utilization,
			float64(res.MeanWait)/60,
			float64(res.P95Wait)/60,
			res.MeanBoundedSlowdown,
		)
	}
	return t, nil
}
