// Package core is the repository's headline contribution: the commodity-
// cluster trajectory explorer. It answers the keynote's central
// questions quantitatively:
//
//   - What does a fixed budget (or power envelope) buy each year as the
//     device-technology curves compound? (Project)
//   - When does a commodity cluster cross the trans-Petaflops line, and
//     how much earlier do the architectural innovations — blades, SMP on
//     a chip, processor in memory, better fabrics — get us there than
//     Moore's law alone? (FindCrossing)
//   - How much does each innovation contribute on its own? (Waterfall)
//
// A Scenario bundles the assumptions: a technology roadmap, a node
// architecture policy, and a fabric-evolution policy. The built-in
// scenarios range from MooreOnly (2002 technology choices, scaled by the
// curves) to AllInnovations (the best architecture and fabric available
// each year).
package core

import (
	"fmt"
	"math"

	"northstar/internal/cluster"
	"northstar/internal/node"
	"northstar/internal/tech"
)

// Scenario bundles the assumptions a projection runs under.
type Scenario struct {
	Name    string
	Roadmap *tech.Roadmap
	// ArchFor returns the node architecture used at a given year.
	ArchFor func(year float64) node.Arch
	// FabricFor returns the fabric preset name used at a given year.
	FabricFor func(year float64) string
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if s.Roadmap == nil || s.ArchFor == nil || s.FabricFor == nil {
		return fmt.Errorf("core: scenario %q is missing a policy", s.Name)
	}
	return nil
}

func fixedArch(a node.Arch) func(float64) node.Arch { return func(float64) node.Arch { return a } }
func fixedFabric(f string) func(float64) string     { return func(float64) string { return f } }

// evolvingFabric is the commodity fabric adoption timeline the keynote
// anticipates: Gigabit Ethernet, then InfiniBand as it commoditizes
// mid-decade, then optical circuit switching late in the decade.
func evolvingFabric(year float64) string {
	switch {
	case year < 2005:
		return "gigabit-ethernet"
	case year < 2009:
		return "infiniband-4x"
	default:
		return "optical-circuit"
	}
}

// MooreOnly is the null hypothesis: 2002 architecture and fabric choices
// riding the device curves alone — "the nodes look like more of the
// same, only faster".
func MooreOnly() Scenario {
	return Scenario{
		Name:      "moore-only",
		Roadmap:   tech.Default2002(),
		ArchFor:   fixedArch(node.Conventional),
		FabricFor: fixedFabric("gigabit-ethernet"),
	}
}

// BladeScenario adds blade packaging (density and power) to MooreOnly.
func BladeScenario() Scenario {
	s := MooreOnly()
	s.Name = "blades"
	s.ArchFor = fixedArch(node.Blade)
	return s
}

// CMPScenario adds SMP-on-a-chip nodes (multicore from 2005 on).
func CMPScenario() Scenario {
	s := MooreOnly()
	s.Name = "smp-on-chip"
	s.ArchFor = fixedArch(node.SMPOnChip)
	return s
}

// PIMScenario builds processor-in-memory nodes.
func PIMScenario() Scenario {
	s := MooreOnly()
	s.Name = "pim"
	s.ArchFor = fixedArch(node.PIM)
	return s
}

// SoCScenario builds system-on-a-chip nodes (many modest, dense,
// power-efficient parts — the BlueGene direction).
func SoCScenario() Scenario {
	s := MooreOnly()
	s.Name = "system-on-chip"
	s.ArchFor = fixedArch(node.SoC)
	return s
}

// FabricScenario keeps conventional nodes but adopts the evolving
// fabric timeline.
func FabricScenario() Scenario {
	s := MooreOnly()
	s.Name = "better-fabric"
	s.FabricFor = evolvingFabric
	return s
}

// AllInnovations picks, at each year, whichever architecture and fabric
// score highest under the explorer's constraint — the "straight up"
// trajectory.
func AllInnovations() Scenario {
	return Scenario{
		Name:      "all-innovations",
		Roadmap:   tech.Default2002(),
		ArchFor:   func(float64) node.Arch { return archBest },
		FabricFor: func(float64) string { return fabricBest },
	}
}

// archBest and fabricBest are sentinels meaning "pick the best per year".
const (
	archBest   node.Arch = "best"
	fabricBest string    = "best"
)

// Scenarios returns the built-in scenarios in ablation order.
func Scenarios() []Scenario {
	return []Scenario{MooreOnly(), BladeScenario(), CMPScenario(), SoCScenario(), PIMScenario(), FabricScenario(), AllInnovations()}
}

// Explorer projects scenarios under a constraint across years.
type Explorer struct {
	// Constraint bounds each year's machine (typically a budget).
	Constraint cluster.Constraint
	// FirstYear and LastYear bound projections (defaults 2002, 2012).
	FirstYear, LastYear float64
}

// Score returns a machine's estimated sustained HPL flops — the Top500
// metric, which makes the interconnect matter. The explorer maximizes it.
func (e Explorer) Score(m cluster.Metrics) float64 {
	sustained, _ := m.LinpackEstimate()
	return sustained
}

func (e Explorer) withDefaults() Explorer {
	if e.FirstYear == 0 {
		e.FirstYear = 2002
	}
	if e.LastYear == 0 {
		e.LastYear = 2012
	}
	return e
}

// Point is one year of a projected trajectory.
type Point struct {
	Year    float64
	Metrics cluster.Metrics
}

// Best returns the highest-scoring machine buildable at the given year
// under the scenario and constraint. An invalid constraint is an error,
// not an infeasible one.
func (e Explorer) Best(s Scenario, year float64) (cluster.Metrics, error) {
	if err := s.Validate(); err != nil {
		return cluster.Metrics{}, err
	}
	if err := e.Constraint.Validate(); err != nil {
		return cluster.Metrics{}, err
	}
	arches := []node.Arch{s.ArchFor(year)}
	if arches[0] == archBest {
		arches = node.Arches()
	}
	fabrics := []string{s.FabricFor(year)}
	if fabrics[0] == fabricBest {
		fabrics = cluster.Fabrics()
	}
	var best cluster.Metrics
	found := false
	for _, a := range arches {
		for _, f := range fabrics {
			m, err := cluster.FitLargest(year, a, f, s.Roadmap, e.Constraint)
			if err != nil {
				continue // may be infeasible under tiny budgets
			}
			if !found || e.Score(m) > e.Score(best) {
				best, found = m, true
			}
		}
	}
	if !found {
		return cluster.Metrics{}, fmt.Errorf("core: no configuration feasible at %.1f under %+v", year, e.Constraint)
	}
	best.Spec.Name = s.Name
	return best, nil
}

// Project returns the scenario's yearly trajectory from FirstYear to
// LastYear inclusive. Both years must pass node.CheckYear, in order.
func (e Explorer) Project(s Scenario) ([]Point, error) {
	e = e.withDefaults()
	for _, year := range []float64{e.FirstYear, e.LastYear} {
		if err := node.CheckYear(year); err != nil {
			return nil, fmt.Errorf("core: projection: %w", err)
		}
	}
	if e.FirstYear > e.LastYear {
		return nil, fmt.Errorf("core: projection from %g to %g runs backwards", e.FirstYear, e.LastYear)
	}
	var out []Point
	for year := e.FirstYear; year <= e.LastYear+1e-9; year++ {
		m, err := e.Best(s, year)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Year: year, Metrics: m})
	}
	return out, nil
}

// Crossing reports when a scenario first reaches a target score
// (sustained Linpack flops).
type Crossing struct {
	Scenario string
	Target   float64
	// Reached is false if the target is not hit by LastYear; Year is
	// then LastYear and Metrics the final machine.
	Reached bool
	Year    float64
	Metrics cluster.Metrics
}

// FindCrossing bisects on the year at which the scenario's best machine
// reaches targetFlops of sustained Linpack (scores grow monotonically
// with year at fixed constraint). Resolution is about a week. The target
// must be finite and positive.
func (e Explorer) FindCrossing(s Scenario, targetFlops float64) (Crossing, error) {
	e = e.withDefaults()
	if !(targetFlops > 0) || math.IsInf(targetFlops, 1) {
		return Crossing{}, fmt.Errorf("core: target %g flop/s must be finite and positive", targetFlops)
	}
	at := func(year float64) (cluster.Metrics, error) { return e.Best(s, year) }
	last, err := at(e.LastYear)
	if err != nil {
		return Crossing{}, err
	}
	c := Crossing{Scenario: s.Name, Target: targetFlops}
	if e.Score(last) < targetFlops {
		c.Reached = false
		c.Year = e.LastYear
		c.Metrics = last
		return c, nil
	}
	first, err := at(e.FirstYear)
	if err != nil {
		return Crossing{}, err
	}
	if e.Score(first) >= targetFlops {
		c.Reached = true
		c.Year = e.FirstYear
		c.Metrics = first
		return c, nil
	}
	lo, hi := e.FirstYear, e.LastYear
	for hi-lo > 1.0/52 {
		mid := (lo + hi) / 2
		m, err := at(mid)
		if err != nil {
			return Crossing{}, err
		}
		if e.Score(m) >= targetFlops {
			hi = mid
		} else {
			lo = mid
		}
	}
	m, err := at(hi)
	if err != nil {
		return Crossing{}, err
	}
	c.Reached = true
	c.Year = hi
	c.Metrics = m
	return c, nil
}

// WaterfallStep is one rung of the innovation decomposition.
type WaterfallStep struct {
	Scenario string
	// Value is the score at the evaluation year.
	Value float64
	// Metrics is the machine achieving it.
	Metrics cluster.Metrics
	// Factor is this scenario's score over the previous step's.
	Factor float64
}

// Waterfall evaluates scenarios in order at one year and reports each
// one's multiplicative contribution over its predecessor — the E12
// "straight up" decomposition.
func (e Explorer) Waterfall(year float64, scenarios []Scenario) ([]WaterfallStep, error) {
	var out []WaterfallStep
	prev := math.NaN()
	for _, s := range scenarios {
		m, err := e.Best(s, year)
		if err != nil {
			return nil, err
		}
		v := e.Score(m)
		step := WaterfallStep{Scenario: s.Name, Value: v, Metrics: m, Factor: 1}
		if !math.IsNaN(prev) {
			step.Factor = v / prev
		}
		prev = v
		out = append(out, step)
	}
	return out, nil
}
