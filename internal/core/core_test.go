package core

import (
	"math"
	"testing"
	"testing/quick"

	"northstar/internal/cluster"
	"northstar/internal/node"
	"northstar/internal/tech"
)

func budget(d float64) Explorer {
	return Explorer{Constraint: cluster.Constraint{BudgetDollars: d}}
}

func TestScenariosValid(t *testing.T) {
	for _, s := range Scenarios() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if err := (Scenario{Name: "empty"}).Validate(); err == nil {
		t.Error("empty scenario validated")
	}
}

func TestProjectGrowsExponentially(t *testing.T) {
	e := budget(1e6)
	pts, err := e.Project(MooreOnly())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11 (2002..2012)", len(pts))
	}
	// Monotone growth and roughly x10 over 5-6 years (flops/$ CAGR 0.52
	// gives x8.1 in 5 years).
	for i := 1; i < len(pts); i++ {
		if pts[i].Metrics.PeakFlops <= pts[i-1].Metrics.PeakFlops {
			t.Fatalf("trajectory not monotone at %g", pts[i].Year)
		}
	}
	ratio := pts[5].Metrics.PeakFlops / pts[0].Metrics.PeakFlops
	if ratio < 5 || ratio > 15 {
		t.Errorf("5-year fixed-budget growth = %.1fx, want ~8x", ratio)
	}
	// Budget respected every year.
	for _, p := range pts {
		if p.Metrics.CostDollars > 1e6 {
			t.Errorf("year %g cost %g over budget", p.Year, p.Metrics.CostDollars)
		}
	}
}

func TestAllInnovationsBeatsMooreOnly(t *testing.T) {
	e := budget(20e6)
	moore, err := e.Best(MooreOnly(), 2010)
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.Best(AllInnovations(), 2010)
	if err != nil {
		t.Fatal(err)
	}
	score := e.Score
	if score(all) <= score(moore) {
		t.Fatalf("all-innovations %g <= moore-only %g at 2010", score(all), score(moore))
	}
	if factor := score(all) / score(moore); factor < 1.5 {
		t.Errorf("innovation factor at 2010 = %.2f, want >= 1.5", factor)
	}
}

func TestFindCrossingPetaflops(t *testing.T) {
	// The E11 headline: with a $20M budget, the all-innovations scenario
	// crosses 1 PF years before Moore-only. Give the search room to 2016
	// so both cross.
	e := budget(20e6)
	e.LastYear = 2016
	moore, err := e.FindCrossing(MooreOnly(), 1e15)
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.FindCrossing(AllInnovations(), 1e15)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Reached {
		t.Fatalf("all-innovations never reached 1 PF by %g", e.LastYear)
	}
	if moore.Reached && moore.Year <= all.Year {
		t.Errorf("moore-only crossed at %.1f, not later than all-innovations %.1f", moore.Year, all.Year)
	}
	if all.Reached && (all.Year < 2006 || all.Year > 2016) {
		t.Errorf("all-innovations petaflops year = %.1f, implausible", all.Year)
	}
	// The crossing's machine really is at/above target.
	if e.Score(all.Metrics) < 1e15 {
		t.Errorf("crossing machine score %g below target", e.Score(all.Metrics))
	}
}

func TestFindCrossingAlreadyPast(t *testing.T) {
	e := budget(1e6)
	c, err := e.FindCrossing(MooreOnly(), 1e9) // a gigaflops: trivially past in 2002
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reached || c.Year != 2002 {
		t.Fatalf("crossing = %+v, want reached at first year", c)
	}
}

func TestFindCrossingNotReached(t *testing.T) {
	e := budget(1e5)
	e.LastYear = 2004
	c, err := e.FindCrossing(MooreOnly(), 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reached {
		t.Fatal("an exaflops for $100k by 2004?")
	}
	if c.Year != 2004 {
		t.Fatalf("unreached crossing year = %g, want LastYear", c.Year)
	}
}

func TestFindCrossingValidation(t *testing.T) {
	// Every comparison with NaN is false, so a NaN target once read as
	// reached in FirstYear.
	for _, target := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := budget(1e6).FindCrossing(MooreOnly(), target); err == nil {
			t.Errorf("target %g accepted", target)
		}
	}
}

// TestProjectValidation: a NaN year once gave an empty projection, a NaN
// power cap none at all.
func TestProjectValidation(t *testing.T) {
	for _, e := range []Explorer{
		{Constraint: cluster.Constraint{BudgetDollars: 1e6}, FirstYear: math.NaN()},
		{Constraint: cluster.Constraint{BudgetDollars: 1e6}, LastYear: math.NaN()},
		{Constraint: cluster.Constraint{BudgetDollars: 1e6}, FirstYear: 2010, LastYear: 2005},
		{Constraint: cluster.Constraint{BudgetDollars: 1e6, PowerWatts: math.NaN()}},
	} {
		if pts, err := e.Project(MooreOnly()); err == nil {
			t.Errorf("%+v: %d points, no error", e, len(pts))
		}
	}
}

func TestWaterfallOrdering(t *testing.T) {
	e := budget(20e6)
	steps, err := e.Waterfall(2010, Scenarios())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(Scenarios()) {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Factor != 1 {
		t.Errorf("first factor = %g, want 1", steps[0].Factor)
	}
	// All-innovations (last) must have the highest score of the list.
	last := steps[len(steps)-1]
	for _, s := range steps[:len(steps)-1] {
		if s.Value > last.Value*(1+1e-9) {
			t.Errorf("%s score %g exceeds all-innovations %g", s.Scenario, s.Value, last.Value)
		}
	}
	// CMP must beat moore-only at 2010 (multicore arrived 2005).
	var moore, cmp float64
	for _, s := range steps {
		switch s.Scenario {
		case "moore-only":
			moore = s.Value
		case "smp-on-chip":
			cmp = s.Value
		}
	}
	if cmp <= moore {
		t.Errorf("smp-on-chip %g <= moore-only %g at 2010", cmp, moore)
	}
}

func TestBestPicksBestArch(t *testing.T) {
	e := budget(5e6)
	best, err := e.Best(AllInnovations(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	// Verify no single fixed architecture beats the chosen one.
	for _, a := range node.Arches() {
		m, err := cluster.FitLargest(2008, a, evolvingFabric(2008), tech.Default2002(), e.Constraint)
		if err != nil {
			continue
		}
		if e.Score(m) > e.Score(best)*(1+1e-9) {
			t.Errorf("arch %s (%g) beats Best's choice (%g)", a, e.Score(m), e.Score(best))
		}
	}
}

func TestPowerConstrainedTrajectory(t *testing.T) {
	// Under a fixed power envelope the power-hungry conventional node is
	// beaten by blades.
	e := Explorer{Constraint: cluster.Constraint{PowerWatts: 500e3}}
	conv, err := e.Best(MooreOnly(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	blade, err := e.Best(BladeScenario(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	if e.Score(blade) <= e.Score(conv) {
		t.Errorf("under a power cap, blades %g should beat conventional %g", e.Score(blade), e.Score(conv))
	}
}

// Property: crossings are monotone — a higher target is never reached
// earlier.
func TestCrossingMonotoneProperty(t *testing.T) {
	e := budget(10e6)
	e.LastYear = 2020
	s := MooreOnly()
	prop := func(rawA, rawB uint8) bool {
		ta := 1e13 * math.Pow(2, float64(rawA%10))
		tb := ta * (1 + float64(rawB%8))
		ca, err := e.FindCrossing(s, ta)
		if err != nil {
			return false
		}
		cb, err := e.FindCrossing(s, tb)
		if err != nil {
			return false
		}
		if ca.Reached && cb.Reached {
			return cb.Year >= ca.Year-1e-9
		}
		// If the lower target wasn't reached, neither is the higher.
		return ca.Reached || !cb.Reached
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
