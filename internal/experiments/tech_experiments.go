package experiments

import (
	"fmt"

	"northstar/internal/cluster"
	"northstar/internal/core"
)

// E11Petaflops reproduces claim C7: the trans-Petaflops crossing — the
// year each scenario's best $20M machine reaches 1 PF sustained
// (Linpack), searched out to 2020.
func E11Petaflops() (*Table, error) {
	e := core.Explorer{
		Constraint: cluster.Constraint{BudgetDollars: 20e6},
		LastYear:   2020,
	}
	t := &Table{
		ID:      "E11",
		Title:   "Trans-Petaflops crossing, $20M budget, 1 PF sustained (Linpack)",
		Columns: []string{"scenario", "crossing-year", "nodes", "arch", "fabric", "power-MW"},
		Notes: []string{
			"expected shape: all-innovations crosses years before moore-only — the keynote's thesis",
			"finding: scenarios stuck on gigabit ethernet never sustain 1 PF — HPL efficiency collapses at ~10^4 ethernet nodes, so the fabric advance is a prerequisite, not an optimization",
		},
	}
	for _, s := range core.Scenarios() {
		c, err := e.FindCrossing(s, 1e15)
		if err != nil {
			return nil, err
		}
		year := fmt.Sprintf("%.1f", c.Year)
		if !c.Reached {
			year = fmt.Sprintf("> %.0f", c.Year)
		}
		t.AddRow(
			c.Scenario,
			year,
			c.Metrics.Spec.Nodes,
			string(c.Metrics.Spec.Arch),
			c.Metrics.Spec.Fabric,
			c.Metrics.PowerWatts/1e6,
		)
	}
	return t, nil
}

// E12Ablation reproduces claim C8: the "straight up" decomposition —
// each innovation's multiplicative contribution to 2010 sustained
// capability under a $20M budget.
func E12Ablation() (*Table, error) {
	e := core.Explorer{Constraint: cluster.Constraint{BudgetDollars: 20e6}}
	steps, err := e.Waterfall(2010, core.Scenarios())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E12",
		Title:   "Innovation waterfall at 2010, $20M budget (sustained TF)",
		Columns: []string{"scenario", "sustained-TF", "vs-moore-only", "arch", "fabric", "nodes"},
		Notes: []string{
			"expected shape: the combination multiplies beyond any single innovation",
			"finding: at thousands of nodes the fabric is the dominant single lever for sustained flops; node architectures contribute ~1.2x each (and blades slightly lose sustained while winning density/power)",
		},
	}
	base := steps[0].Value
	for _, s := range steps {
		t.AddRow(
			s.Scenario,
			s.Value/1e12,
			s.Value/base,
			string(s.Metrics.Spec.Arch),
			s.Metrics.Spec.Fabric,
			s.Metrics.Spec.Nodes,
		)
	}
	return t, nil
}
