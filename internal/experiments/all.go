package experiments

import (
	"fmt"
	"sync"
)

// Spec names one experiment and how to run it.
type Spec struct {
	ID    string
	Title string
	Run   func(quick bool) (*Table, error)
	// Cost is a scheduling hint: measured full-mode wall seconds on a
	// 1-CPU container (a traced benchmark run reports them as
	// span.spec.<ID>). RunSpecs dispatches longest-processing-time-first
	// so the long poles start before the sub-millisecond specs; a zero
	// Cost just sorts last.
	// Output order is unaffected — tables always print in suite order.
	Cost float64
}

// All returns the full experiment suite in order. Pass quick=true to the
// Run functions for CI-scale sweeps. Migrated experiments come straight
// from their ScenarioSpec (ID, title, cost, and Run are all spec data);
// the rest are still bespoke functions.
func All() []Spec {
	wrap := func(f func() (*Table, error)) func(bool) (*Table, error) {
		return func(bool) (*Table, error) { return f() }
	}
	return []Spec{
		mustScenario("E1"),
		mustScenario("E2"),
		mustScenario("E3"),
		mustScenario("E4"),
		mustScenario("E5"),
		mustScenario("E5b"),
		{"E6", "collective scaling", E6Collectives, 0.26},
		mustScenario("E6b"),
		mustScenario("E7"),
		{"E8", "batch scheduling policies", E8Scheduling, 0.13},
		mustScenario("E9"),
		mustScenario("E10"),
		{"E11", "trans-petaflops crossing", wrap(E11Petaflops), 0.016},
		{"E12", "innovation waterfall", wrap(E12Ablation), 0.001},
		{"X1", "hybrid vs flat placement on SMP nodes", X1Hybrid, 0.07},
		{"X2", "degraded-fabric operation", X2Degraded, 0.076},
		{"X3", "power-wall sensitivity", wrap(X3PowerWall), 0.003},
		{"X4", "I/O-limited checkpointing", X4CheckpointIO, 0.001},
		{"X5", "management/monitoring scalability", X5Monitoring, 0.002},
		{"X6", "node placement: contiguous vs scatter", X6Placement, 0.12},
		{"X7", "congestion trees under credit flow control", X7Congestion, 0.17},
	}
}

var byID struct {
	once sync.Once
	m    map[string]Spec
}

// ByID returns the experiment spec with the given ID. The index is built
// once, on first use.
func ByID(id string) (Spec, error) {
	byID.once.Do(func() {
		specs := All()
		byID.m = make(map[string]Spec, len(specs))
		for _, s := range specs {
			byID.m[s.ID] = s
		}
	})
	if s, ok := byID.m[id]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
