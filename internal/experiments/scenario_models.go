// Scenario models: the row kernels behind ScenarioSpec. A model owns the
// physics of one experiment family — which packages it drives and how a
// sweep point becomes table cells — while every number and name it
// consumes arrives through the spec. Each model declares its axes,
// parameters, and options so ScenarioSpec.Validate can reject a hostile
// or mistyped spec before any simulation runs.
package experiments

import (
	"fmt"
	"math"
	"strconv"

	"northstar/internal/cluster"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/stats"
	"northstar/internal/tech"
	"northstar/internal/workload"
)

// axisKind says how an axis or option value parses and validates.
type axisKind int

const (
	kindInt axisKind = iota
	kindFloat
	kindFabric
	kindArch
	kindApp
)

// check validates one string value of the kind; lo/hi bound numeric
// kinds (ignored for the name kinds, which validate by lookup).
func (k axisKind) check(v string, lo, hi float64) error {
	switch k {
	case kindInt:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("value %q is not an integer", v)
		}
		if float64(n) < lo || float64(n) > hi {
			return fmt.Errorf("value %d outside [%g, %g]", n, lo, hi)
		}
	case kindFloat:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("value %q is not a finite number", v)
		}
		if f < lo || f > hi {
			return fmt.Errorf("value %g outside [%g, %g]", f, lo, hi)
		}
	case kindFabric:
		if _, err := network.PresetByName(v); err != nil {
			return fmt.Errorf("unknown fabric %q", v)
		}
	case kindArch:
		for _, a := range node.Arches() {
			if string(a) == v {
				return nil
			}
		}
		return fmt.Errorf("unknown node architecture %q", v)
	case kindApp:
		if _, err := appByName(v, 1); err != nil {
			return err
		}
	}
	return nil
}

// axisDef declares one sweep axis a model consumes: its name, how its
// values parse, whether it spans columns instead of rows, and the legal
// numeric range.
type axisDef struct {
	name   string
	kind   axisKind
	cols   bool
	lo, hi float64
}

// paramDef declares one numeric parameter: name, legal range, and
// whether it must be integral.
type paramDef struct {
	name    string
	lo, hi  float64
	integer bool
}

// optionDef declares one string option (fabric or architecture name).
type optionDef struct {
	name string
	kind axisKind
}

// scenarioModel binds a model name to its declaration and row kernel.
// Models without setup and not marked sequential have row-independent
// sweeps: the interpreter shards their points across the mc pool.
// Sequential models (or models with setup state, which rows share)
// evaluate points in sweep order on one goroutine.
type scenarioModel struct {
	axes       []axisDef
	params     []paramDef
	options    []optionDef
	sequential bool
	// rowWidth returns the number of cells each row produces for the
	// given spec, so Validate can pin the declared columns against it.
	rowWidth func(s *ScenarioSpec) int
	// setup builds shared per-run state (optional; implies sequential rows).
	setup func(env *scenarioEnv) (any, error)
	// row turns one sweep point into table cells.
	row func(env *scenarioEnv, state any, pt axisPoint) ([]any, error)
}

// fixedWidth is the common rowWidth: the model always emits n cells.
func fixedWidth(n int) func(*ScenarioSpec) int {
	return func(*ScenarioSpec) int { return n }
}

// appByName builds the E4 application skeletons from their axis names,
// shrunk by the quick-mode scale divisor.
func appByName(name string, scale int) (workload.App, error) {
	if scale < 1 {
		return nil, fmt.Errorf("experiments: app scale %d must be >= 1", scale)
	}
	switch name {
	case "ep":
		return workload.EP{FlopsPerRank: 4e9 / float64(scale)}, nil
	case "stencil2d":
		return workload.Stencil2D{GridX: 2048 / scale, GridY: 2048 / scale, Iters: 20}, nil
	case "cg":
		return workload.CG{N: int64(1 << 20 / scale), NNZPerRow: 27, Iters: 25}, nil
	case "hpl":
		return workload.HPL{N: int64(8192 / scale), NB: 64}, nil
	}
	return nil, fmt.Errorf("experiments: unknown application %q", name)
}

// roadmap2002 is the calibration roadmap every model and experiment in
// this package reads, built once per process. It is read-only: specs
// and served requests read it from many goroutines at once, which is
// safe for a roadmap's map reads but not for a Set. A model that needs
// a different roadmap builds its own — tech.Default2002 returns a fresh
// one on every call.
var roadmap2002 = tech.Default2002()

// buildMachine is the shared machine constructor for the messaging
// models: n conventional-by-default nodes of the given year on the
// preset, seeded from the spec.
func buildMachine(env *scenarioEnv, n int, arch node.Arch, preset network.Preset, year float64) (*machine.Machine, error) {
	return machine.New(machine.Config{
		Nodes:  n,
		Node:   node.MustBuild(arch, roadmap2002, year),
		Fabric: preset,
		Seed:   env.spec.Seed,
	})
}

// scenarioModels is the row-kernel registry. Every entry is pure physics
// plus formatting: parameters, sweep values, fabric and architecture
// names all come from the spec, and each body is the former bespoke
// experiment function with its constants lifted out.
var scenarioModels = map[string]*scenarioModel{

	// tech-curves projects the roadmap's per-socket curves across a year
	// sweep (E1).
	"tech-curves": {
		axes:     []axisDef{{name: "year", kind: kindFloat, lo: node.MinYear, hi: node.MaxYear}},
		rowWidth: fixedWidth(9),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			r := roadmap2002
			year := pt.floatValue("year")
			return []any{
				year, // in [node.MinYear, node.MaxYear], so it prints whole, as %.0f
				r.At(tech.PeakFlopsPerSocket, year) / 1e9,
				1e9 / r.At(tech.FlopsPerDollar, year),
				r.At(tech.DRAMBytesPerDollar, year) / 1e6,
				r.At(tech.MemBandwidthPerSocket, year) / 1e9,
				r.At(tech.WattsPerSocket, year),
				r.At(tech.DiskBytesPerDollar, year) / 1e9,
				r.At(tech.LinkBandwidth, year) / 1e9,
				r.At(tech.LinkLatency, year) * 1e6,
			}, nil
		},
	},

	// fixed-budget fits the largest machine a budget buys per year on a
	// fixed architecture and fabric (E2).
	"fixed-budget": {
		axes:   []axisDef{{name: "year", kind: kindFloat, lo: node.MinYear, hi: node.MaxYear}},
		params: []paramDef{{name: "budget-dollars", lo: 1, hi: 1e12}},
		options: []optionDef{
			{name: "arch", kind: kindArch},
			{name: "fabric", kind: kindFabric},
		},
		rowWidth: fixedWidth(9),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			year := pt.floatValue("year")
			m, err := cluster.FitLargest(year, node.Arch(env.option("arch")), env.option("fabric"), roadmap2002,
				cluster.Constraint{BudgetDollars: env.param("budget-dollars")})
			if err != nil {
				return nil, err
			}
			sustained, eff := m.LinpackEstimate()
			return []any{
				year,
				m.Spec.Nodes,
				m.PeakFlops / 1e12,
				sustained / 1e12,
				eff,
				m.MemBytes / 1e12,
				m.PowerWatts / 1e3,
				m.Racks,
				float64(m.MTBF) / 86400,
			}, nil
		},
	},

	// node-arch builds each architecture at each year and reports its
	// efficiency metrics (E3). Year is the outer (slower) axis.
	"node-arch": {
		axes: []axisDef{
			{name: "year", kind: kindFloat, lo: node.MinYear, hi: node.MaxYear},
			{name: "arch", kind: kindArch},
		},
		rowWidth: fixedWidth(9),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			year := pt.floatValue("year")
			m, err := node.Build(node.Arch(pt.value("arch")), roadmap2002, year)
			if err != nil {
				return nil, err
			}
			return []any{
				year,
				pt.value("arch"),
				m.CoresPerSocket * m.Sockets,
				m.PeakFlops / 1e9,
				m.FlopsPerDollar() * 1e3 / 1e9,
				m.FlopsPerWatt() / 1e9,
				m.FlopsPerRackUnit() / 1e9,
				m.BytesPerFlop(),
				m.NodesPerRack(),
			}, nil
		},
	},

	// arch-apps runs each application skeleton across the architecture
	// set, normalized to conventional at the same year (E4).
	"arch-apps": {
		axes: []axisDef{{name: "app", kind: kindApp}},
		params: []paramDef{
			{name: "nodes", lo: 2, hi: 4096, integer: true},
			{name: "scale", lo: 1, hi: 64, integer: true},
		},
		options:  []optionDef{{name: "fabric", kind: kindFabric}},
		rowWidth: fixedWidth(5),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			nodes, scale := env.intParam("nodes"), env.intParam("scale")
			preset, err := network.PresetByName(env.option("fabric"))
			if err != nil {
				return nil, err
			}
			app, err := appByName(pt.value("app"), scale)
			if err != nil {
				return nil, err
			}
			row := []any{app.Name()}
			var convTime, conv2006 sim.Time
			for i, cfg := range []struct {
				arch node.Arch
				year float64
			}{
				{node.Conventional, 2002},
				{node.Blade, 2002},
				{node.SMPOnChip, 2006},
				{node.PIM, 2002},
			} {
				m, err := buildMachine(env, nodes, cfg.arch, preset, cfg.year)
				if err != nil {
					return nil, err
				}
				rep, err := workload.Execute(m, msg.Options{}, app)
				if err != nil {
					return nil, err
				}
				switch i {
				case 0:
					convTime = rep.Elapsed
					// Baseline for the 2006 comparison.
					m6, err := buildMachine(env, nodes, node.Conventional, preset, 2006)
					if err != nil {
						return nil, err
					}
					rep6, err := workload.Execute(m6, msg.Options{}, app)
					if err != nil {
						return nil, err
					}
					conv2006 = rep6.Elapsed
					row = append(row, 1.0)
				case 2:
					row = append(row, float64(rep.Elapsed)/float64(conv2006))
				default:
					row = append(row, float64(rep.Elapsed)/float64(convTime))
				}
			}
			return row, nil
		},
	},

	// pingpong measures per-fabric latency, bandwidth, and the
	// half-bandwidth message size on a two-node machine (E5).
	"pingpong": {
		axes:     []axisDef{{name: "fabric", kind: kindFabric}},
		params:   []paramDef{{name: "reps", lo: 1, hi: 1e4, integer: true}},
		rowWidth: fixedWidth(5),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			preset, err := network.PresetByName(pt.value("fabric"))
			if err != nil {
				return nil, err
			}
			reps := env.intParam("reps")
			oneWay := func(bytes int64) (sim.Time, error) {
				m, err := buildMachine(env, 2, node.Conventional, preset, 2002)
				if err != nil {
					return 0, err
				}
				rep, err := workload.Execute(m, msg.Options{}, workload.PingPong{Bytes: bytes, Reps: reps})
				if err != nil {
					return 0, err
				}
				return rep.Elapsed / sim.Time(2*reps), nil
			}
			lat, err := oneWay(8)
			if err != nil {
				return nil, err
			}
			bw := func(bytes int64) (float64, error) {
				tt, err := oneWay(bytes)
				if err != nil {
					return 0, err
				}
				return float64(bytes) / float64(tt) / 1e6, nil
			}
			bw64k, err := bw(64 << 10)
			if err != nil {
				return nil, err
			}
			bw4m, err := bw(4 << 20)
			if err != nil {
				return nil, err
			}
			// Half-bandwidth point: smallest power-of-two size achieving
			// half the 4MB bandwidth.
			halfKB := -1.0
			for sz := int64(8); sz <= 4<<20; sz *= 2 {
				b, err := bw(sz)
				if err != nil {
					return nil, err
				}
				if b >= bw4m/2 {
					halfKB = float64(sz) / 1024
					break
				}
			}
			return []any{preset.Name, float64(lat) * 1e6, bw64k, bw4m, halfKB}, nil
		},
	},

	// eager-rendezvous sweeps one-way message time across sizes (rows)
	// and eager limits (columns) on one fabric (E5b).
	"eager-rendezvous": {
		axes: []axisDef{
			{name: "bytes", kind: kindInt, lo: 1, hi: 1 << 30},
			{name: "limit", kind: kindInt, cols: true, lo: 1, hi: 1 << 30},
		},
		params:  []paramDef{{name: "reps", lo: 1, hi: 1e4, integer: true}},
		options: []optionDef{{name: "fabric", kind: kindFabric}},
		rowWidth: func(s *ScenarioSpec) int {
			for _, ax := range s.Sweep {
				if ax.Name == "limit" {
					return 1 + len(ax.Values)
				}
			}
			return 1
		},
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			preset, err := network.PresetByName(env.option("fabric"))
			if err != nil {
				return nil, err
			}
			reps := env.intParam("reps")
			size := pt.int64Value("bytes")
			row := []any{fmt.Sprintf("%d", size)}
			for _, lv := range env.axis("limit") {
				limit, err := strconv.ParseInt(lv, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("experiments: eager limit %q is not an integer", lv)
				}
				m, err := buildMachine(env, 2, node.Conventional, preset, 2002)
				if err != nil {
					return nil, err
				}
				rep, err := workload.Execute(m, msg.Options{EagerLimit: limit}, workload.PingPong{Bytes: size, Reps: reps})
				if err != nil {
					return nil, err
				}
				row = append(row, float64(rep.Elapsed)/float64(2*reps)*1e6)
			}
			return row, nil
		},
	},

	// allreduce-algos ablates the collective algorithms across vector
	// sizes at fixed rank count (E6b).
	"allreduce-algos": {
		axes:     []axisDef{{name: "bytes", kind: kindInt, lo: 1, hi: 1 << 30}},
		params:   []paramDef{{name: "p", lo: 2, hi: 4096, integer: true}},
		options:  []optionDef{{name: "fabric", kind: kindFabric}},
		rowWidth: fixedWidth(4),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			preset, err := network.PresetByName(env.option("fabric"))
			if err != nil {
				return nil, err
			}
			p := env.intParam("p")
			bytes := pt.int64Value("bytes")
			row := []any{fmt.Sprintf("%d", bytes)}
			for _, algo := range []msg.Algo{msg.RecursiveDoubling, msg.Ring, msg.Binomial} {
				m, err := buildMachine(env, p, node.Conventional, preset, 2002)
				if err != nil {
					return nil, err
				}
				end, err := msg.Run(m, msg.Options{Allreduce: algo}, func(r *msg.Rank) { r.Allreduce(bytes) })
				if err != nil {
					return nil, err
				}
				row = append(row, float64(end)*1e3)
			}
			return row, nil
		},
	},

	// optical-alltoall races a packet-switched fat tree against the
	// optical circuit switch across per-pair payload sizes (E7). Both
	// machines are built once in setup and reset between payload sizes —
	// Machine.Reset makes a reused machine bit-identical to a fresh one —
	// so the rows run sequentially against the shared state.
	"optical-alltoall": {
		axes: []axisDef{{name: "bytes", kind: kindInt, lo: 1, hi: 1 << 30}},
		params: []paramDef{
			{name: "p", lo: 2, hi: 4096, integer: true},
		},
		options: []optionDef{
			{name: "packet-fabric", kind: kindFabric},
			{name: "circuit-fabric", kind: kindFabric},
		},
		rowWidth: fixedWidth(4),
		setup: func(env *scenarioEnv) (any, error) {
			p := env.intParam("p")
			packetPreset, err := network.PresetByName(env.option("packet-fabric"))
			if err != nil {
				return nil, err
			}
			circuitPreset, err := network.PresetByName(env.option("circuit-fabric"))
			if err != nil {
				return nil, err
			}
			ib, err := machine.New(machine.Config{
				Nodes:       p,
				Node:        node.MustBuild(node.Conventional, roadmap2002, 2002),
				Fabric:      packetPreset,
				PacketLevel: true,
				Topology:    machine.TopoFatTree,
				Seed:        env.spec.Seed,
			})
			if err != nil {
				return nil, err
			}
			// Bulk batching: the payloads run to thousands of MTU packets
			// per pair, the steady-state fast path's exact territory.
			if pn, ok := ib.Fabric().(*network.PacketNet); ok {
				pn.BatchBulk = true
			}
			opt, err := buildMachine(env, p, node.Conventional, circuitPreset, 2002)
			if err != nil {
				return nil, err
			}
			return &opticalState{ib: ib, opt: opt}, nil
		},
		row: func(env *scenarioEnv, state any, pt axisPoint) ([]any, error) {
			st := state.(*opticalState)
			bytes := pt.int64Value("bytes")
			st.ib.Reset()
			tIB, err := msg.Run(st.ib, msg.Options{}, func(r *msg.Rank) { r.Alltoall(bytes) })
			if err != nil {
				return nil, err
			}
			st.opt.Reset()
			tOpt, err := msg.Run(st.opt, msg.Options{}, func(r *msg.Rank) { r.Alltoall(bytes) })
			if err != nil {
				return nil, err
			}
			winner := "packet"
			if tOpt < tIB {
				winner = "optical"
			}
			return []any{fmt.Sprintf("%d", bytes), float64(tIB) * 1e3, float64(tOpt) * 1e3, winner}, nil
		},
	},

	// mtbf-scale reports system MTBF, Monte Carlo first-failure time, and
	// all-up availability across a node-count sweep (E9). Rows run in
	// sweep order; each row's Monte Carlo runs on the interpretation's
	// pool through FirstFailureMean's substream contract.
	"mtbf-scale": {
		axes: []axisDef{{name: "nodes", kind: kindInt, lo: 1, hi: 1e7}},
		params: []paramDef{
			{name: "node-mtbf-days", lo: 1e-3, hi: 1e6},
			{name: "repair-hours", lo: 1e-3, hi: 1e5},
			{name: "weibull-shape", lo: 0.05, hi: 20},
			{name: "runs", lo: 1, hi: 1e6, integer: true},
			{name: "runs-large", lo: 1, hi: 1e6, integer: true},
			{name: "large-cutoff", lo: 1, hi: 1e9, integer: true},
		},
		sequential: true,
		rowWidth:   fixedWidth(4),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			n := pt.intValue("nodes")
			nodeMTBF := sim.Time(env.param("node-mtbf-days")) * sim.Day
			shape := env.param("weibull-shape")
			weibullScale := float64(nodeMTBF) / math.Gamma(1+1/shape)
			expo := fault.System{
				Nodes:    n,
				Lifetime: stats.Exponential{Rate: 1 / float64(nodeMTBF)},
				Repair:   stats.Constant{V: float64(env.param("repair-hours")) * float64(sim.Hour)},
			}
			weib := fault.System{Nodes: n, Lifetime: stats.Weibull{Scale: weibullScale, Shape: shape}}
			runs := env.intParam("runs")
			if n >= env.intParam("large-cutoff") {
				runs = env.intParam("runs-large")
			}
			return []any{
				n,
				expo.MTBF().String(),
				weib.FirstFailureMean(env.pool, runs, env.spec.Seed).String(),
				expo.AllUpAvailability(),
			}, nil
		},
	},

	// checkpoint-opt compares the analytic checkpoint intervals (Young,
	// Daly) against the simulated optimum as scale shrinks MTBF (E10).
	// Rows run in sweep order; OptimalInterval runs its grid on env.pool.
	"checkpoint-opt": {
		axes: []axisDef{{name: "nodes", kind: kindInt, lo: 1, hi: 1e7}},
		params: []paramDef{
			{name: "node-mtbf-days", lo: 1e-3, hi: 1e6},
			{name: "work-hours", lo: 1e-3, hi: 1e6},
			{name: "overhead-min", lo: 1e-3, hi: 1e5},
			{name: "restart-min", lo: 0, hi: 1e5},
			{name: "runs", lo: 1, hi: 1e6, integer: true},
		},
		sequential: true,
		rowWidth:   fixedWidth(7),
		row: func(env *scenarioEnv, _ any, pt axisPoint) ([]any, error) {
			n := pt.intValue("nodes")
			nodeMTBF := sim.Time(env.param("node-mtbf-days")) * sim.Day
			mtbf := nodeMTBF / sim.Time(n)
			runs := env.intParam("runs")
			c := fault.Checkpoint{
				Work:     sim.Time(env.param("work-hours")) * sim.Hour,
				Overhead: sim.Time(env.param("overhead-min")) * sim.Minute,
				Restart:  sim.Time(env.param("restart-min")) * sim.Minute,
				MTBF:     mtbf,
				Interval: sim.Hour, // placeholder; OptimalInterval searches
			}
			young := fault.YoungInterval(c.Overhead, mtbf)
			daly := fault.DalyInterval(c.Overhead, mtbf)
			opt, optRes, err := c.OptimalInterval(env.pool, runs, env.spec.Seed)
			if err != nil {
				return nil, err
			}
			cy := c
			cy.Interval = young
			youngRes, err := cy.Simulate(env.pool, runs, env.spec.Seed)
			if err != nil {
				return nil, err
			}
			return []any{
				n,
				mtbf.String(),
				young.String(),
				daly.String(),
				opt.String(),
				optRes.UsefulFraction,
				youngRes.UsefulFraction,
			}, nil
		},
	},
}

// opticalState is the shared per-run state of the optical-alltoall
// model: both machines, built once, reset per payload size.
type opticalState struct {
	ib, opt *machine.Machine
}
