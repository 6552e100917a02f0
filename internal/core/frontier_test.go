package core

import (
	"math"
	"testing"

	"northstar/internal/cluster"
	"northstar/internal/tech"
)

func TestFrontierIsPareto(t *testing.T) {
	e := budget(20e6)
	pts, err := e.Frontier(tech.Default2002(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	// Full menu: every feasible arch x fabric combination.
	if len(pts) < 10 {
		t.Fatalf("menu has %d entries; expected most of 5 arch x 6 fabrics", len(pts))
	}
	// Sorted by descending score; the top entry is always Pareto.
	for i := 1; i < len(pts); i++ {
		if pts[i].Score > pts[i-1].Score {
			t.Fatal("menu not sorted by descending score")
		}
	}
	if !pts[0].Pareto {
		t.Fatal("top-scoring entry not marked Pareto")
	}
	// Every non-Pareto entry is genuinely dominated; every Pareto entry
	// is not.
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && q.Metrics.CostDollars <= p.Metrics.CostDollars &&
				q.Metrics.PowerWatts <= p.Metrics.PowerWatts && q.Score > p.Score {
				dominated = true
				break
			}
		}
		if dominated == p.Pareto {
			t.Fatalf("entry %d (%s/%s): pareto=%v but dominated=%v",
				i, p.Metrics.Spec.Arch, p.Metrics.Spec.Fabric, p.Pareto, dominated)
		}
	}
}

func TestFrontierContainsBest(t *testing.T) {
	e := budget(20e6)
	pts, err := e.Frontier(tech.Default2002(), 2010)
	if err != nil {
		t.Fatal(err)
	}
	best, err := e.Best(AllInnovations(), 2010)
	if err != nil {
		t.Fatal(err)
	}
	top := pts[0]
	if top.Score < e.Score(best)*(1-1e-9) {
		t.Fatalf("frontier top score %g below Best's %g", top.Score, e.Score(best))
	}
}

func TestFrontierRespectsConstraint(t *testing.T) {
	e := Explorer{Constraint: cluster.Constraint{BudgetDollars: 2e6, PowerWatts: 300e3}}
	pts, err := e.Frontier(tech.Default2002(), 2006)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Metrics.CostDollars > 2e6 || p.Metrics.PowerWatts > 300e3 {
			t.Fatalf("frontier point violates constraint: %+v", p.Metrics)
		}
	}
}

// TestFrontierRejectsInvalidInput: a NaN year or cap is an error, where
// it once read as an empty menu or as no cap.
func TestFrontierRejectsInvalidInput(t *testing.T) {
	for _, c := range []struct {
		e    Explorer
		year float64
	}{
		{budget(20e6), math.NaN()},
		{budget(20e6), 2200},
		{budget(math.NaN()), 2008},
		{Explorer{Constraint: cluster.Constraint{BudgetDollars: 20e6, PowerWatts: math.NaN()}}, 2008},
	} {
		if pts, err := c.e.Frontier(tech.Default2002(), c.year); err == nil {
			t.Errorf("%+v at %g: %d points, no error", c.e.Constraint, c.year, len(pts))
		}
	}
}

func TestFrontierInfeasible(t *testing.T) {
	e := budget(50) // fifty dollars
	pts, err := e.Frontier(tech.Default2002(), 2002)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("fifty dollars bought %d configurations", len(pts))
	}
}
