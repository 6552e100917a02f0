package cluster

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/tech"
)

func roadmap() *tech.Roadmap { return tech.Default2002() }

func spec2002(n int) Spec {
	return Spec{Name: "beowulf", Year: 2002, Arch: node.Conventional, Nodes: n, Fabric: "gigabit-ethernet"}
}

func TestBuildBeowulf2002(t *testing.T) {
	m, err := Build(spec2002(128), roadmap())
	if err != nil {
		t.Fatal(err)
	}
	// 128 dual-Xeon nodes: ~1.2 TF peak, a few hundred kW... actually
	// tens of kW, a few hundred k$, a handful of racks.
	if m.PeakFlops < 1e12 || m.PeakFlops > 2e12 {
		t.Errorf("peak = %g, want ~1.2e12", m.PeakFlops)
	}
	if m.CostDollars < 2e5 || m.CostDollars > 1e6 {
		t.Errorf("cost = %g, want hundreds of k$", m.CostDollars)
	}
	if m.PowerWatts < 2e4 || m.PowerWatts > 1.5e5 {
		t.Errorf("power = %g W, want tens of kW", m.PowerWatts)
	}
	if m.Racks < 5 || m.Racks > 12 {
		t.Errorf("racks = %d, want ~7 (128 x 2U + switches)", m.Racks)
	}
	// 128 nodes at 1000-day node MTBF: about a week between failures.
	if m.MTBF < 5*sim.Day || m.MTBF > 10*sim.Day {
		t.Errorf("MTBF = %v, want ~7.8 days", m.MTBF)
	}
	if !strings.Contains(m.String(), "beowulf") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Spec{
		{Name: "x", Year: 2002, Arch: node.Conventional, Nodes: 0, Fabric: "gigabit-ethernet"},
		{Name: "x", Year: 1500, Arch: node.Conventional, Nodes: 1, Fabric: "gigabit-ethernet"},
		{Name: "x", Year: math.NaN(), Arch: node.Conventional, Nodes: 1, Fabric: "gigabit-ethernet"},
		{Name: "x", Year: 2002, Arch: node.Conventional, Nodes: 1, Fabric: "carrier-pigeon"},
		{Name: "x", Year: 2002, Arch: "alien", Nodes: 1, Fabric: "gigabit-ethernet"},
	}
	for i, s := range bad {
		if _, err := Build(s, roadmap()); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestMetricsScaleLinearly(t *testing.T) {
	m1, err := Build(spec2002(100), roadmap())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(spec2002(200), roadmap())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.PeakFlops/m1.PeakFlops-2) > 1e-9 {
		t.Errorf("peak not linear: %g vs %g", m1.PeakFlops, m2.PeakFlops)
	}
	if math.Abs(m2.CostDollars/m1.CostDollars-2) > 1e-9 {
		t.Errorf("cost not linear")
	}
	// MTBF halves.
	if math.Abs(float64(m1.MTBF)/float64(m2.MTBF)-2) > 1e-9 {
		t.Errorf("MTBF not inverse: %v vs %v", m1.MTBF, m2.MTBF)
	}
}

func TestFabricEconomicsAffectCost(t *testing.T) {
	cheap := spec2002(64)
	exp := cheap
	exp.Fabric = "qsnet-elan3"
	mc, err := Build(cheap, roadmap())
	if err != nil {
		t.Fatal(err)
	}
	me, err := Build(exp, roadmap())
	if err != nil {
		t.Fatal(err)
	}
	if me.CostDollars-mc.CostDollars < 64*3000 {
		t.Errorf("QsNet premium = %g, want >= 64 x ~$3k", me.CostDollars-mc.CostDollars)
	}
}

func TestAllFabricsHaveEconomics(t *testing.T) {
	if got := len(Fabrics()); got != 6 {
		t.Fatalf("fabrics with economics = %d, want 6", got)
	}
	for _, f := range Fabrics() {
		s := spec2002(8)
		s.Fabric = f
		if _, err := Build(s, roadmap()); err != nil {
			t.Errorf("fabric %s: %v", f, err)
		}
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m, err := Build(spec2002(16), roadmap())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != m.Spec || back.PeakFlops != m.PeakFlops || back.MTBF != m.MTBF {
		t.Fatalf("round trip changed metrics:\n%+v\n%+v", m, back)
	}
}

func TestConstraintSatisfies(t *testing.T) {
	m, err := Build(spec2002(64), roadmap())
	if err != nil {
		t.Fatal(err)
	}
	if !(Constraint{}).Satisfies(m) {
		t.Error("unconstrained must satisfy")
	}
	if (Constraint{BudgetDollars: m.CostDollars / 2}).Satisfies(m) {
		t.Error("half budget should fail")
	}
	if (Constraint{PowerWatts: m.PowerWatts / 2}).Satisfies(m) {
		t.Error("half power should fail")
	}
	if (Constraint{FloorSpaceM2: 1}).Satisfies(m) {
		t.Error("one square meter should fail")
	}
}

func TestFitLargestRespectsBudget(t *testing.T) {
	c := Constraint{BudgetDollars: 1e6}
	m, err := FitLargest(2002, node.Conventional, "gigabit-ethernet", roadmap(), c)
	if err != nil {
		t.Fatal(err)
	}
	if m.CostDollars > c.BudgetDollars {
		t.Fatalf("fit cost %g exceeds budget", m.CostDollars)
	}
	// One more node must violate.
	over := m.Spec
	over.Nodes++
	mo, err := Build(over, roadmap())
	if err != nil {
		t.Fatal(err)
	}
	if c.Satisfies(mo) {
		t.Fatalf("fit was not maximal: %d nodes also fits", over.Nodes)
	}
	// $1M in 2002 buys a few hundred nodes.
	if m.Spec.Nodes < 150 || m.Spec.Nodes > 500 {
		t.Errorf("$1M buys %d nodes, want 150-500", m.Spec.Nodes)
	}
}

func TestFitLargestPowerBound(t *testing.T) {
	c := Constraint{PowerWatts: 100e3}
	m, err := FitLargest(2002, node.Blade, "gigabit-ethernet", roadmap(), c)
	if err != nil {
		t.Fatal(err)
	}
	if m.PowerWatts > c.PowerWatts {
		t.Fatalf("power %g exceeds cap", m.PowerWatts)
	}
}

// TestFitLargestRejectsBadCaps: a NaN cap once read as no cap, and a
// negative one as an impossible one.
func TestFitLargestRejectsBadCaps(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), -1} {
		for _, c := range []Constraint{{BudgetDollars: v}, {BudgetDollars: 1e6, PowerWatts: v}, {BudgetDollars: 1e6, FloorSpaceM2: v}} {
			if _, err := FitLargest(2002, node.Conventional, "gigabit-ethernet", roadmap(), c); err == nil || !strings.Contains(err.Error(), "finite and non-negative") {
				t.Errorf("%+v: err = %v, want a validation error", c, err)
			}
		}
	}
}

func TestFitLargestInfeasible(t *testing.T) {
	if _, err := FitLargest(2002, node.Conventional, "gigabit-ethernet", roadmap(),
		Constraint{BudgetDollars: 10}); err == nil {
		t.Fatal("ten dollars bought a cluster")
	}
}

// Property: FitLargest is maximal and within constraints for random
// budgets and years.
func TestFitLargestMaximalProperty(t *testing.T) {
	r := roadmap()
	prop := func(rawBudget uint32, rawYear uint8) bool {
		budget := 2e4 + float64(rawBudget%10_000_000)
		year := 2002 + float64(rawYear%9)
		c := Constraint{BudgetDollars: budget}
		m, err := FitLargest(year, node.Conventional, "gigabit-ethernet", r, c)
		if err != nil {
			// Feasibility of a single node: only fails for tiny budgets.
			one, berr := Build(Spec{Name: "x", Year: year, Arch: node.Conventional, Nodes: 1, Fabric: "gigabit-ethernet"}, r)
			return berr == nil && one.CostDollars > budget
		}
		if m.CostDollars > budget {
			return false
		}
		over := m.Spec
		over.Nodes++
		mo, err := Build(over, r)
		return err == nil && mo.CostDollars > budget
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBladeDensityShowsUpInRacks(t *testing.T) {
	conv := spec2002(256)
	blade := conv
	blade.Arch = node.Blade
	mc, err := Build(conv, roadmap())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Build(blade, roadmap())
	if err != nil {
		t.Fatal(err)
	}
	if mb.Racks >= mc.Racks {
		t.Errorf("blade racks %d >= conventional %d", mb.Racks, mc.Racks)
	}
	if mb.FloorSpaceM2 >= mc.FloorSpaceM2 {
		t.Errorf("blade floor space %g >= conventional %g", mb.FloorSpaceM2, mc.FloorSpaceM2)
	}
}
