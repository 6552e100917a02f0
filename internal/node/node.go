// Package node models the commodity-node architectures the keynote names
// as the drivers of the decade: conventional rackmount boxes, blade
// servers, "system and SMP on a chip" (chip multiprocessors), and
// processor-in-memory (PIM). A Model is built from a technology roadmap
// at a given year, so the same architecture rules replay at 2002, 2006,
// or 2010 and the *relative* strengths — density for blades, flops/$ and
// flops/W for CMP, memory bandwidth for PIM — are what the experiments
// measure.
//
// Compute timing uses the roofline model: a work phase of f flops
// touching b bytes takes max(f/sustained-flops, b/memory-bandwidth).
// That single equation is what makes PIM interesting: PIM trades peak
// flops for an order of magnitude more memory bandwidth, so memory-bound
// codes (stencil, sparse CG) speed up while dense kernels do not.
package node

import (
	"fmt"

	"northstar/internal/sim"
	"northstar/internal/tech"
)

// Arch names a node architecture.
type Arch string

// The architectures the keynote enumerates.
const (
	// Conventional is a dual-socket 2U rackmount server, the 2002
	// Beowulf workhorse.
	Conventional Arch = "conventional"
	// Blade is a single-socket blade: lower clock and power, chassis-
	// amortized packaging, ~3x the density.
	Blade Arch = "blade"
	// SMPOnChip is a chip multiprocessor node: multiple cores share one
	// socket's power/cost envelope (arriving mid-decade), multiplying
	// flops per socket faster than memory bandwidth grows.
	SMPOnChip Arch = "smp-on-chip"
	// SoC is a system-on-a-chip node: an embedded-class core with the
	// memory controller and NIC integrated on die — modest per-node
	// peak, extreme density and power efficiency, halved per-message
	// software overhead (the BlueGene direction).
	SoC Arch = "system-on-chip"
	// PIM is processor-in-memory: modest logic embedded in the DRAM
	// arrays, giving ~8x effective memory bandwidth at reduced peak
	// flops per watt of the logic itself.
	PIM Arch = "pim"
)

// Arches lists all architectures in presentation order.
func Arches() []Arch { return []Arch{Conventional, Blade, SMPOnChip, SoC, PIM} }

// archParams are the architecture scaling rules, applied on top of the
// roadmap's per-socket curves. They encode the qualitative trade-offs
// from the 2002-era architecture literature; experiments depend on their
// ordering, not their precise values.
type archParams struct {
	sockets int
	// clockScale derates per-core flops (blades run cooler and slower).
	clockScale float64
	// powerScale scales socket power (blade sockets are low-voltage
	// parts; PIM logic rides the DRAM process).
	powerScale float64
	// memBWScale scales per-socket memory bandwidth (PIM's reason to
	// exist).
	memBWScale float64
	// costScale scales the compute cost (chassis amortization for
	// blades; exotic-but-commodity packaging for PIM).
	costScale float64
	// rackUnits is the node's share of a 42U rack.
	rackUnits float64
	// overheadWatts covers PSU loss, fans, disk, NIC.
	overheadWatts float64
	// integrationCost covers chassis, NIC, disk, assembly.
	integrationCost float64
	// cmp reports whether the node multiplies cores per the CMP curve.
	cmp bool
	// bytesPerFlop sets memory capacity relative to peak flops.
	bytesPerFlop float64
	// nicOverheadScale scales the fabric's per-message CPU overhead —
	// below 1 for integrated network interfaces.
	nicOverheadScale float64
}

var params = map[Arch]archParams{
	Conventional: {
		sockets: 2, clockScale: 1.0, powerScale: 1.0, memBWScale: 1.0,
		costScale: 1.0, rackUnits: 2.0, overheadWatts: 120, integrationCost: 900,
		bytesPerFlop: 0.25,
	},
	Blade: {
		sockets: 2, clockScale: 0.85, powerScale: 0.65, memBWScale: 1.0,
		costScale: 0.92, rackUnits: 0.6, overheadWatts: 45, integrationCost: 700,
		bytesPerFlop: 0.20,
	},
	SMPOnChip: {
		sockets: 2, clockScale: 0.9, powerScale: 1.05, memBWScale: 1.15,
		costScale: 1.0, rackUnits: 2.0, overheadWatts: 120, integrationCost: 900,
		cmp: true, bytesPerFlop: 0.25,
	},
	SoC: {
		sockets: 1, clockScale: 0.4, powerScale: 0.15, memBWScale: 0.8,
		costScale: 0.55, rackUnits: 0.08, overheadWatts: 8, integrationCost: 250,
		bytesPerFlop: 0.3, nicOverheadScale: 0.5,
	},
	PIM: {
		sockets: 8, clockScale: 0.22, powerScale: 0.18, memBWScale: 8.0,
		costScale: 1.15, rackUnits: 1.0, overheadWatts: 60, integrationCost: 800,
		bytesPerFlop: 0.5,
	},
}

// Model is a fully materialized node: one architecture evaluated against
// a roadmap at one year. All quantities are SI (flops/s, bytes, watts,
// dollars).
type Model struct {
	Arch           Arch    `json:"arch"`
	Year           float64 `json:"year"`
	Sockets        int     `json:"sockets"`
	CoresPerSocket int     `json:"cores_per_socket"`
	PeakFlops      float64 `json:"peak_flops"`
	MemBytes       float64 `json:"mem_bytes"`
	MemBandwidth   float64 `json:"mem_bandwidth"`
	Watts          float64 `json:"watts"`
	Cost           float64 `json:"cost"`
	RackUnits      float64 `json:"rack_units"`
	// Sustained is the fraction of peak achieved by compute-bound code.
	Sustained float64 `json:"sustained"`
	// NICOverheadScale multiplies the fabric's per-message CPU overhead
	// (1 for a discrete NIC; < 1 for an on-die network interface).
	NICOverheadScale float64 `json:"nic_overhead_scale"`
}

// MinYear and MaxYear bound the technology years a model is built for.
// The roadmap extrapolates its 2002 curves exponentially, and the CMP
// scenario doubles its cores every two years, so far outside this range
// a model's quantities overflow or vanish.
const (
	MinYear = 1990
	MaxYear = 2100
)

// CheckYear returns an error unless year lies in [MinYear, MaxYear]. NaN
// fails.
func CheckYear(year float64) error {
	if !(year >= MinYear && year <= MaxYear) {
		return fmt.Errorf("node: year %g outside [%d, %d]", year, MinYear, MaxYear)
	}
	return nil
}

// Build materializes architecture a at the given year from roadmap r.
// The year must pass CheckYear.
func Build(a Arch, r *tech.Roadmap, year float64) (Model, error) {
	p, ok := params[a]
	if !ok {
		return Model{}, fmt.Errorf("node: unknown architecture %q", a)
	}
	if err := CheckYear(year); err != nil {
		return Model{}, err
	}
	socketFlops := r.At(tech.PeakFlopsPerSocket, year) * p.clockScale
	cores := 1
	if p.cmp {
		cores = cmpCores(year)
		// Each doubling of cores costs a little clock (shared power
		// envelope), so flops grow by ~1.85x per core doubling.
		socketFlops *= float64(cores) * powHalf(0.925, cores)
	}
	flops := float64(p.sockets) * socketFlops
	memBW := float64(p.sockets) * r.At(tech.MemBandwidthPerSocket, year) * p.memBWScale
	memBytes := flops * p.bytesPerFlop
	watts := float64(p.sockets)*r.At(tech.WattsPerSocket, year)*p.powerScale +
		p.overheadWatts + memBytes/1e9*1.5 // ~1.5 W per GB of DRAM
	cost := flops/r.At(tech.FlopsPerDollar, year)*p.costScale +
		memBytes/r.At(tech.DRAMBytesPerDollar, year) + p.integrationCost
	nic := p.nicOverheadScale
	if nic == 0 {
		nic = 1
	}
	return Model{
		Arch:             a,
		Year:             year,
		Sockets:          p.sockets,
		CoresPerSocket:   cores,
		PeakFlops:        flops,
		MemBytes:         memBytes,
		MemBandwidth:     memBW,
		Watts:            watts,
		Cost:             cost,
		RackUnits:        p.rackUnits,
		Sustained:        0.8,
		NICOverheadScale: nic,
	}, nil
}

// MustBuild is Build that panics on error, for literal architectures.
func MustBuild(a Arch, r *tech.Roadmap, year float64) Model {
	m, err := Build(a, r, year)
	if err != nil {
		panic(err)
	}
	return m
}

// cmpCores returns cores per socket for the CMP scenario: single-core
// through 2004, then doubling every two years (2 in 2005, 4 in 2007,
// 8 in 2009...).
func cmpCores(year float64) int {
	if year < 2005 {
		return 1
	}
	cores := 2
	for y := year - 2005; y >= 2; y -= 2 {
		cores *= 2
	}
	return cores
}

// powHalf returns base^log2(cores).
func powHalf(base float64, cores int) float64 {
	out := 1.0
	for c := cores; c > 1; c /= 2 {
		out *= base
	}
	return out
}

// ComputeTime returns the roofline execution time for a phase of the
// given flops touching the given memory bytes.
func (m Model) ComputeTime(flops, memBytes float64) sim.Time {
	if flops < 0 || memBytes < 0 {
		panic("node: negative work")
	}
	tf := flops / (m.Sustained * m.PeakFlops)
	tm := memBytes / m.MemBandwidth
	if tm > tf {
		return sim.Time(tm)
	}
	return sim.Time(tf)
}

// FlopsPerWatt returns peak flops per watt.
func (m Model) FlopsPerWatt() float64 { return m.PeakFlops / m.Watts }

// FlopsPerDollar returns peak flops per dollar of node cost.
func (m Model) FlopsPerDollar() float64 { return m.PeakFlops / m.Cost }

// FlopsPerRackUnit returns peak flops per rack unit of space.
func (m Model) FlopsPerRackUnit() float64 { return m.PeakFlops / m.RackUnits }

// BytesPerFlop returns the memory bandwidth balance: sustained memory
// bytes/s per peak flop/s. Higher favors memory-bound applications.
func (m Model) BytesPerFlop() float64 { return m.MemBandwidth / m.PeakFlops }

// NodesPerRack returns how many of these nodes fit a 42U rack.
func (m Model) NodesPerRack() int { return int(42 / m.RackUnits) }

// String summarizes the model.
func (m Model) String() string {
	return fmt.Sprintf("%s@%.0f: %s peak, %s mem, %s membw, %.0f W, %s, %.2g U",
		m.Arch, m.Year,
		tech.Engineering(m.PeakFlops, "flop/s"),
		tech.Engineering(m.MemBytes, "B"),
		tech.Engineering(m.MemBandwidth, "B/s"),
		m.Watts, tech.Dollars(m.Cost), m.RackUnits)
}
