// Package cluster turns a cluster specification — year, node
// architecture, node count, fabric — into system-level metrics: peak
// flops, memory, power (including facility overhead), cost (including
// the interconnect), racks, and floor space. It is the unit the
// trajectory explorer (internal/core) optimizes over, and the direct
// implementation of the keynote's "performance, capacity, power, size,
// and cost curves of future commodity clusters".
package cluster

import (
	"fmt"
	"math"

	"northstar/internal/fault"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/stats"
	"northstar/internal/tech"
)

// Spec names a buildable cluster configuration.
type Spec struct {
	Name   string    `json:"name"`
	Year   float64   `json:"year"`
	Arch   node.Arch `json:"arch"`
	Nodes  int       `json:"nodes"`
	Fabric string    `json:"fabric"` // a network preset name
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("cluster: spec %q needs nodes > 0", s.Name)
	}
	if err := node.CheckYear(s.Year); err != nil {
		return fmt.Errorf("cluster: spec %q: %w", s.Name, err)
	}
	if _, err := network.PresetByName(s.Fabric); err != nil {
		return err
	}
	return nil
}

// fabricEconomics is the per-port cost (at 2002) and power of each
// fabric, amortizing NICs and switch ports together, plus the annual
// price-decline rate as each fabric commoditizes (specialized fabrics
// fall faster from their introduction premium).
var fabricEconomics = map[string]struct {
	costPerPort2002 float64
	declinePerYear  float64
	wattsPerPort    float64
}{
	"fast-ethernet":    {60, 0.10, 4},
	"gigabit-ethernet": {250, 0.12, 8},
	"myrinet-2000":     {1600, 0.15, 10},
	"qsnet-elan3":      {3500, 0.15, 12},
	"infiniband-4x":    {1400, 0.18, 12},
	"optical-circuit":  {5000, 0.20, 6},
}

// fabricPortCost returns the per-port price at the given year.
func fabricPortCost(fabric string, year float64) float64 {
	fe := fabricEconomics[fabric]
	return fe.costPerPort2002 * math.Pow(1-fe.declinePerYear, year-2002)
}

// Facility constants: power usage effectiveness (cooling and
// distribution overhead) and rack footprint including service aisle.
const (
	facilityPUE      = 1.6
	rackFootprintM2  = 2.5
	nodeMTBFDays2002 = 1000.0
	switchPortsPerU  = 16.0
)

// Metrics are the system-level consequences of a Spec.
type Metrics struct {
	Spec Spec `json:"spec"`

	Node node.Model `json:"node"`

	PeakFlops float64 `json:"peak_flops"`
	MemBytes  float64 `json:"mem_bytes"`
	// PowerWatts is total facility power (nodes + fabric, times PUE).
	PowerWatts float64 `json:"power_watts"`
	// CostDollars is hardware cost: nodes plus fabric ports.
	CostDollars float64 `json:"cost_dollars"`
	Racks       int     `json:"racks"`
	// FloorSpaceM2 includes service aisles.
	FloorSpaceM2 float64 `json:"floor_space_m2"`
	// MTBF is the expected time between node failures anywhere in the
	// system, from the 2002 rule of thumb of ~1000 days per node.
	MTBF sim.Time `json:"mtbf_seconds"`
}

// Build materializes the spec against a roadmap.
func Build(s Spec, r *tech.Roadmap) (Metrics, error) {
	if err := s.Validate(); err != nil {
		return Metrics{}, err
	}
	nm, err := node.Build(s.Arch, r, s.Year)
	if err != nil {
		return Metrics{}, err
	}
	fe, ok := fabricEconomics[s.Fabric]
	if !ok {
		return Metrics{}, fmt.Errorf("cluster: no economics for fabric %q", s.Fabric)
	}
	n := float64(s.Nodes)
	m := Metrics{
		Spec:        s,
		Node:        nm,
		PeakFlops:   n * nm.PeakFlops,
		MemBytes:    n * nm.MemBytes,
		PowerWatts:  (n*nm.Watts + n*fe.wattsPerPort) * facilityPUE,
		CostDollars: n*nm.Cost + n*fabricPortCost(s.Fabric, s.Year),
	}
	// Rack count: node space plus switch space (ports packed at
	// switchPortsPerU per rack unit).
	nodeU := n * nm.RackUnits
	switchU := n / switchPortsPerU
	m.Racks = int(math.Ceil((nodeU + switchU) / 42))
	m.FloorSpaceM2 = float64(m.Racks) * rackFootprintM2
	sys := fault.System{
		Nodes:    s.Nodes,
		Lifetime: stats.Exponential{Rate: 1 / (nodeMTBFDays2002 * float64(sim.Day))},
	}
	m.MTBF = sys.MTBF()
	return m, nil
}

// String summarizes the metrics.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %d x %s @ %.0f on %s — %s peak, %s mem, %s, %s, %d racks, MTBF %v",
		m.Spec.Name, m.Spec.Nodes, m.Spec.Arch, m.Spec.Year, m.Spec.Fabric,
		tech.Engineering(m.PeakFlops, "flop/s"),
		tech.Engineering(m.MemBytes, "B"),
		tech.Engineering(m.PowerWatts, "W"),
		tech.Dollars(m.CostDollars), m.Racks, m.MTBF)
}

// Constraint bounds a configuration search.
type Constraint struct {
	// BudgetDollars caps hardware cost (0 = unconstrained).
	BudgetDollars float64
	// PowerWatts caps facility power (0 = unconstrained).
	PowerWatts float64
	// FloorSpaceM2 caps floor space (0 = unconstrained).
	FloorSpaceM2 float64
}

// Validate checks that every cap is finite and non-negative; 0 is no
// cap.
func (c Constraint) Validate() error {
	for _, limit := range []struct {
		name  string
		value float64
	}{{"budget", c.BudgetDollars}, {"power cap", c.PowerWatts}, {"floor-space cap", c.FloorSpaceM2}} {
		if !(limit.value >= 0) || math.IsInf(limit.value, 1) {
			return fmt.Errorf("cluster: %s %g must be finite and non-negative", limit.name, limit.value)
		}
	}
	return nil
}

// Satisfies reports whether metrics m fits the constraint.
func (c Constraint) Satisfies(m Metrics) bool {
	if c.BudgetDollars > 0 && m.CostDollars > c.BudgetDollars {
		return false
	}
	if c.PowerWatts > 0 && m.PowerWatts > c.PowerWatts {
		return false
	}
	if c.FloorSpaceM2 > 0 && m.FloorSpaceM2 > c.FloorSpaceM2 {
		return false
	}
	return true
}

// FitLargest returns the largest node count (and its metrics) of the
// given architecture/fabric/year that satisfies the constraint, by
// binary search; per-node metrics scale monotonically with count. It
// returns an error if the constraint is invalid or even one node
// violates it.
func FitLargest(year float64, arch node.Arch, fabric string, r *tech.Roadmap, c Constraint) (Metrics, error) {
	if err := c.Validate(); err != nil {
		return Metrics{}, err
	}
	build := func(n int) (Metrics, error) {
		return Build(Spec{
			Name: fmt.Sprintf("fit-%s-%.0f", arch, year), Year: year,
			Arch: arch, Nodes: n, Fabric: fabric,
		}, r)
	}
	one, err := build(1)
	if err != nil {
		return Metrics{}, err
	}
	if !c.Satisfies(one) {
		return Metrics{}, fmt.Errorf("cluster: one %s node at %.0f already violates %+v", arch, year, c)
	}
	// Exponential probe then binary search.
	lo, hi := 1, 2
	for {
		m, err := build(hi)
		if err != nil {
			return Metrics{}, err
		}
		if !c.Satisfies(m) {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1<<26 {
			return Metrics{}, fmt.Errorf("cluster: constraint %+v appears unbounded", c)
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		m, err := build(mid)
		if err != nil {
			return Metrics{}, err
		}
		if c.Satisfies(m) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return build(lo)
}

// Fabrics returns the fabric names with economics defined, in the
// capability order of network.Presets.
func Fabrics() []string {
	var out []string
	for _, p := range network.Presets() {
		if _, ok := fabricEconomics[p.Name]; ok {
			out = append(out, p.Name)
		}
	}
	return out
}
