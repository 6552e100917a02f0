// Command northstar is the interactive front end to the commodity-
// cluster futures laboratory.
//
// Usage:
//
//	northstar project  [-budget 1e6] [-scenario moore-only] [-from 2002] [-to 2012]
//	northstar simulate [-nodes 64] [-arch conventional] [-fabric myrinet-2000]
//	                   [-year 2002] [-app stencil] [-packet] [-topo fattree]
//	northstar schedule [-nodes 128] [-jobs 2000] [-load 0.85] [-policy all]
//	northstar faults   [-nodes 4096] [-work 168] [-delta 5]
//	northstar explore  [-budget 20e6] [-target 1e15] [-year 2010]
//	northstar serve    [-addr 127.0.0.1:8424] [-cache-mb 64] [-pool 0]
//
// Every number it prints is virtual-time simulation or analytic
// projection; runs are deterministic given -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"northstar/internal/cluster"
	"northstar/internal/core"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sched"
	"northstar/internal/sim"
	"northstar/internal/stats"
	"northstar/internal/tech"
	"northstar/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its implementation. A subcommand
// writes its report to stdout and its flag diagnostics to stderr.
var commands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"project":  cmdProject,
	"simulate": cmdSimulate,
	"schedule": cmdSchedule,
	"faults":   cmdFaults,
	"explore":  cmdExplore,
	"serve":    cmdServe,
	"topo":     cmdTopo,
	"frontier": cmdFrontier,
}

// run is the whole command behind the process boundary. It returns the
// exit status: 0 on success or -h, 1 when the subcommand fails, and 2
// for an unknown command or bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		switch args[0] {
		case "help", "-h", "--help":
		default:
			fmt.Fprintf(stderr, "northstar: unknown command %q\n\n", args[0])
		}
		usage(stderr)
		return 2
	}
	switch err := cmd(args[1:], stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	default:
		fmt.Fprintln(stderr, "northstar:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: northstar <command> [flags]

commands:
  project    project what a budget buys each year under a scenario
  simulate   run an application skeleton on a simulated machine
  schedule   compare batch-scheduling policies on a synthetic trace
  faults     MTBF, availability, and checkpoint planning at scale
  explore    trans-petaflops crossings and the innovation waterfall
  serve      scenario service: HTTP/JSON daemon with a result cache
  topo       interconnect topology metrics and failure analysis
  frontier   the Pareto menu of buildable configurations at a year

run 'northstar <command> -h' for flags.`)
}

// errFlags reports a flag error the flag package has already printed,
// with the subcommand's usage, to stderr.
var errFlags = errors.New("bad flags")

// flagSet returns a subcommand's flag set, reporting to stderr.
func flagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. It returns flag.ErrHelp for -h and
// errFlags for any other flag error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errFlags
	}
	return err
}

func scenarioByName(name string) (core.Scenario, error) {
	for _, s := range core.Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range core.Scenarios() {
		names = append(names, s.Name)
	}
	return core.Scenario{}, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(names, ", "))
}

func cmdProject(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("project", stderr)
	budget := fs.Float64("budget", 1e6, "hardware budget, dollars")
	power := fs.Float64("power", 0, "power cap, watts (0 = none)")
	scn := fs.String("scenario", "moore-only", "scenario name")
	from := fs.Float64("from", 2002, "first year")
	to := fs.Float64("to", 2012, "last year")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	s, err := scenarioByName(*scn)
	if err != nil {
		return err
	}
	e := core.Explorer{
		Constraint: cluster.Constraint{BudgetDollars: *budget, PowerWatts: *power},
		FirstYear:  *from,
		LastYear:   *to,
	}
	pts, err := e.Project(s)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "year\tnodes\tarch\tfabric\tpeak TF\tsustained TF\tpower kW\tracks\tMTBF")
	for _, p := range pts {
		sustained, _ := p.Metrics.LinpackEstimate()
		fmt.Fprintf(w, "%.0f\t%d\t%s\t%s\t%.2f\t%.2f\t%.0f\t%d\t%v\n",
			p.Year, p.Metrics.Spec.Nodes, p.Metrics.Spec.Arch, p.Metrics.Spec.Fabric,
			p.Metrics.PeakFlops/1e12, sustained/1e12, p.Metrics.PowerWatts/1e3,
			p.Metrics.Racks, p.Metrics.MTBF)
	}
	return w.Flush()
}

func cmdSimulate(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("simulate", stderr)
	nodes := fs.Int("nodes", 64, "cluster size")
	arch := fs.String("arch", "conventional", "node architecture")
	fabric := fs.String("fabric", "myrinet-2000", "fabric preset name")
	year := fs.Float64("year", 2002, "technology year")
	appName := fs.String("app", "stencil", "app: pingpong|stencil|fft|ep|cg|hpl|masterworker")
	packet := fs.Bool("packet", false, "packet-level network simulation")
	topo := fs.String("topo", "fattree", "packet topology: crossbar|fattree|torus2d|torus3d|hypercube")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	preset, err := network.PresetByName(*fabric)
	if err != nil {
		return err
	}
	nm, err := node.Build(node.Arch(*arch), tech.Default2002(), *year)
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Config{
		Nodes:       *nodes,
		Node:        nm,
		Fabric:      preset,
		PacketLevel: *packet,
		Topology:    machine.Topology(*topo),
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	var app workload.App
	switch *appName {
	case "pingpong":
		app = workload.PingPong{Bytes: 64 << 10, Reps: 100}
	case "stencil":
		app = workload.Stencil2D{GridX: 4096, GridY: 4096, Iters: 50}
	case "fft":
		app = workload.FFT1D{N: 1 << 22}
	case "ep":
		app = workload.EP{FlopsPerRank: 1e10}
	case "cg":
		app = workload.CG{N: 1 << 22, NNZPerRow: 27, Iters: 50}
	case "hpl":
		app = workload.HPL{N: 16384, NB: 128}
	case "masterworker":
		app = workload.MasterWorker{Tasks: 500, TaskFlops: 1e8, ResultBytes: 4096}
	default:
		return fmt.Errorf("unknown app %q", *appName)
	}
	fmt.Fprintln(stdout, "machine:", m)
	rep, err := workload.Execute(m, msg.Options{}, app)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "report: ", rep)
	fmt.Fprintf(stdout, "per-rank mean: compute %v, blocked-in-comm %v\n", rep.MeanComputeTime, rep.MeanCommTime)
	return nil
}

func cmdSchedule(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("schedule", stderr)
	nodes := fs.Int("nodes", 128, "cluster size")
	jobs := fs.Int("jobs", 2000, "jobs in the synthetic trace")
	load := fs.Float64("load", 0.85, "offered load")
	policy := fs.String("policy", "all", "fcfs|easy|conservative|gang|all")
	seed := fs.Int64("seed", 1, "trace seed")
	swf := fs.String("swf", "", "replay this SWF trace file instead of generating one")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var trace []*sched.Job
	var err error
	if *swf != "" {
		f, ferr := os.Open(*swf)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		trace, err = sched.ReadSWF(f, *nodes)
		if err == nil {
			fmt.Fprintf(stdout, "replaying %d jobs from %s\n", len(trace), *swf)
		}
	} else {
		trace, err = sched.GenerateTrace(sched.TraceConfig{
			Jobs: *jobs, MaxNodes: *nodes, Load: *load, Seed: *seed,
		})
	}
	if err != nil {
		return err
	}
	clone := func() []*sched.Job {
		out := make([]*sched.Job, len(trace))
		for i, j := range trace {
			cp := *j
			out[i] = &cp
		}
		return out
	}
	run := func(name string) (sched.Result, error) {
		switch name {
		case "fcfs":
			return sched.Simulate(*nodes, clone(), sched.FCFS{})
		case "easy":
			return sched.Simulate(*nodes, clone(), sched.EASY{})
		case "conservative":
			return sched.Simulate(*nodes, clone(), sched.Conservative{})
		case "gang":
			return sched.SimulateGang(*nodes, clone(), sched.GangConfig{})
		default:
			return sched.Result{}, fmt.Errorf("unknown policy %q", name)
		}
	}
	names := []string{*policy}
	if *policy == "all" {
		names = []string{"fcfs", "easy", "conservative", "gang"}
	}
	for _, n := range names {
		res, err := run(n)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
	}
	return nil
}

func cmdFaults(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("faults", stderr)
	nodes := fs.Int("nodes", 4096, "cluster size")
	nodeMTBFDays := fs.Float64("node-mtbf", 1000, "per-node MTBF, days")
	repairHours := fs.Float64("repair", 4, "repair time, hours")
	workHours := fs.Float64("work", 168, "job useful work, hours")
	deltaMin := fs.Float64("delta", 5, "checkpoint cost, minutes")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// Check every input, and run the search, before printing anything.
	// Young and Daly need a positive checkpoint cost; Checkpoint.Validate
	// allows a zero one.
	sys := fault.System{
		Nodes:    *nodes,
		Lifetime: stats.Exponential{Rate: 1 / (*nodeMTBFDays * float64(sim.Day))},
		Repair:   stats.Constant{V: *repairHours * float64(sim.Hour)},
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	if !(*deltaMin > 0) {
		return fmt.Errorf("-delta %g: the checkpoint cost must be positive", *deltaMin)
	}
	mtbf := sys.MTBF()
	c := fault.Checkpoint{
		Work:     sim.Time(*workHours) * sim.Hour,
		Overhead: sim.Time(*deltaMin) * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     mtbf,
		Interval: sim.Hour,
	}
	if err := c.Validate(); err != nil {
		return err
	}
	opt, res, err := c.OptimalInterval(mc.Default(), 200, 1)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%d nodes at %.0f-day node MTBF:\n", *nodes, *nodeMTBFDays)
	fmt.Fprintf(stdout, "  system MTBF          %v\n", mtbf)
	fmt.Fprintf(stdout, "  all-up availability  %.4g\n", sys.AllUpAvailability())
	young := fault.YoungInterval(c.Overhead, mtbf)
	daly := fault.DalyInterval(c.Overhead, mtbf)
	fmt.Fprintf(stdout, "checkpoint planning for a %.0f h job (delta %.0f min):\n", *workHours, *deltaMin)
	fmt.Fprintf(stdout, "  Young interval       %v\n", young)
	fmt.Fprintf(stdout, "  Daly interval        %v\n", daly)
	fmt.Fprintf(stdout, "  simulated optimum    %v (useful work %.1f%%, %.1f failures/run)\n",
		opt, res.UsefulFraction*100, res.MeanFailures)
	return nil
}

func cmdExplore(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("explore", stderr)
	budget := fs.Float64("budget", 20e6, "hardware budget, dollars")
	target := fs.Float64("target", 1e15, "sustained flops target")
	year := fs.Float64("year", 2010, "waterfall evaluation year")
	lastYear := fs.Float64("last", 2020, "crossing search horizon")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	e := core.Explorer{
		Constraint: cluster.Constraint{BudgetDollars: *budget},
		LastYear:   *lastYear,
	}
	// Every crossing and the waterfall are found before anything prints,
	// so a rejected target or year leaves stdout empty.
	var crossings []core.Crossing
	for _, s := range core.Scenarios() {
		c, err := e.FindCrossing(s, *target)
		if err != nil {
			return err
		}
		crossings = append(crossings, c)
	}
	steps, err := e.Waterfall(*year, core.Scenarios())
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "crossing of %s sustained under %s:\n", tech.Engineering(*target, "flop/s"), tech.Dollars(*budget))
	fmt.Fprintln(w, "scenario\tyear\tnodes\tarch\tfabric")
	for _, c := range crossings {
		yr := fmt.Sprintf("%.1f", c.Year)
		if !c.Reached {
			yr = fmt.Sprintf("> %.0f", c.Year)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", c.Scenario, yr, c.Metrics.Spec.Nodes,
			c.Metrics.Spec.Arch, c.Metrics.Spec.Fabric)
	}
	w.Flush()

	fmt.Fprintf(stdout, "\ninnovation waterfall at %.0f:\n", *year)
	base := steps[0].Value
	for _, s := range steps {
		fmt.Fprintf(stdout, "  %-16s %10s  (%.2fx)\n", s.Scenario,
			tech.Engineering(s.Value, "flop/s"), s.Value/base)
	}
	return nil
}

func cmdTopo(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("topo", stderr)
	kind := fs.String("kind", "fattree", "crossbar|fattree|torus2d|torus3d|hypercube")
	nodes := fs.Int("nodes", 64, "endpoints to cover")
	failures := fs.Int("failures", 0, "core links to fail before reporting")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *failures < 0 {
		return fmt.Errorf("-failures %d: a failure count cannot be negative", *failures)
	}

	g, err := machine.Topology(*kind).Build(*nodes)
	if err != nil {
		return err
	}
	g.FailCoreLinks(*failures)
	fmt.Fprintf(stdout, "topology        %s\n", g.Name)
	fmt.Fprintf(stdout, "endpoints       %d\n", g.NumEndpoints())
	fmt.Fprintf(stdout, "switch vertices %d\n", g.Vertices()-g.NumEndpoints())
	fmt.Fprintf(stdout, "links           %d (%d failed)\n", g.Edges(), g.DisabledEdges())
	fmt.Fprintf(stdout, "bisection links %d\n", g.BisectionLinks)
	fmt.Fprintf(stdout, "diameter        %d hops\n", g.Diameter())
	fmt.Fprintf(stdout, "avg distance    %.2f hops\n", g.AvgDistance())
	fmt.Fprintf(stdout, "connected       %v\n", g.AllEndpointsConnected())
	return nil
}

func cmdFrontier(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("frontier", stderr)
	budget := fs.Float64("budget", 20e6, "hardware budget, dollars")
	power := fs.Float64("power", 0, "power cap, watts (0 = none)")
	year := fs.Float64("year", 2008, "technology year")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	e := core.Explorer{Constraint: cluster.Constraint{BudgetDollars: *budget, PowerWatts: *power}}
	pts, err := e.Frontier(tech.Default2002(), *year)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		fmt.Fprintln(stdout, "no feasible configuration under the constraint")
		return nil
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "sustained TF\tcost\tpower kW\tarch\tfabric\tnodes\tpareto")
	for _, p := range pts {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		fmt.Fprintf(w, "%.2f\t%s\t%.0f\t%s\t%s\t%d\t%s\n",
			p.Score/1e12, tech.Dollars(p.Metrics.CostDollars), p.Metrics.PowerWatts/1e3,
			p.Metrics.Spec.Arch, p.Metrics.Spec.Fabric, p.Metrics.Spec.Nodes, mark)
	}
	return w.Flush()
}
