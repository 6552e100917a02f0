// Package northstar is a commodity-cluster futures laboratory: a
// from-scratch reproduction of the system outlined in Thomas Sterling's
// CLUSTER 2002 keynote, "Launching into the future of commodity cluster
// computing".
//
// It bundles, behind one import path:
//
//   - a deterministic discrete-event simulation kernel (Kernel, Time);
//   - device-technology roadmaps (Roadmap) and node-architecture models
//     (NodeModel) for conventional, blade, SMP-on-chip, and
//     processor-in-memory nodes;
//   - interconnect fabrics (FabricPreset and the Fabric interface) from
//     Fast Ethernet through InfiniBand to optical circuit switching,
//     with both analytic LogGP and packet-level simulation;
//   - a user-level message-passing layer (Rank, collectives) running in
//     virtual time on a simulated Machine;
//   - application skeletons (stencil, FFT, CG, HPL, master/worker);
//   - batch scheduling (FCFS, EASY and conservative backfill, gang);
//   - failure and checkpoint/restart models (FaultSystem, Checkpoint);
//   - cluster configuration algebra (ClusterSpec -> ClusterMetrics) and
//     the trajectory Explorer that projects what a budget buys each
//     year and when commodity clusters cross the trans-Petaflops line.
//
// The facade re-exports the supported API from the internal packages;
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// evaluation suite this library regenerates.
package northstar

import (
	"io"

	"northstar/internal/alloc"
	"northstar/internal/cluster"
	"northstar/internal/core"
	"northstar/internal/experiments"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/mgmt"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sched"
	"northstar/internal/sim"
	"northstar/internal/stats"
	"northstar/internal/storage"
	"northstar/internal/tech"
	"northstar/internal/topology"
	"northstar/internal/workload"
)

// ---- simulation kernel ----

// Time is a point in virtual time, in seconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
	Day         = sim.Day
)

// Kernel is the deterministic discrete-event simulation engine.
type Kernel = sim.Kernel

// NewKernel returns a Kernel seeded for reproducibility.
func NewKernel(seed int64) *Kernel { return sim.New(seed) }

// ---- technology roadmap ----

// Roadmap is a set of exponential device-technology curves.
type Roadmap = tech.Roadmap

// Curve is one exponential projection.
type Curve = tech.Curve

// CurveKey names a roadmap quantity.
type CurveKey = tech.Key

// Roadmap curve keys.
const (
	PeakFlopsPerSocket    = tech.PeakFlopsPerSocket
	FlopsPerDollar        = tech.FlopsPerDollar
	DRAMBytesPerDollar    = tech.DRAMBytesPerDollar
	MemBandwidthPerSocket = tech.MemBandwidthPerSocket
	WattsPerSocket        = tech.WattsPerSocket
	DiskBytesPerDollar    = tech.DiskBytesPerDollar
	LinkBandwidth         = tech.LinkBandwidth
	LinkLatency           = tech.LinkLatency
	CoresPerSocket        = tech.CoresPerSocket
)

// DefaultRoadmap returns the calibration roadmap anchored at 2002.
func DefaultRoadmap() *Roadmap { return tech.Default2002() }

// PowerWallRoadmap returns the pessimistic variant in which frequency
// scaling stalls in 2005 and socket power flattens.
func PowerWallRoadmap() *Roadmap { return tech.PowerWall2005() }

// ---- node architectures ----

// Arch names a node architecture.
type Arch = node.Arch

// The node architectures of the keynote.
const (
	Conventional = node.Conventional
	Blade        = node.Blade
	SMPOnChip    = node.SMPOnChip
	SoC          = node.SoC
	PIM          = node.PIM
)

// Arches lists all node architectures.
func Arches() []Arch { return node.Arches() }

// NodeModel is a materialized node: one architecture at one year.
type NodeModel = node.Model

// BuildNode materializes an architecture at a year against a roadmap.
func BuildNode(a Arch, r *Roadmap, year float64) (NodeModel, error) { return node.Build(a, r, year) }

// ---- fabrics ----

// Fabric is a message transport between endpoints in virtual time.
type Fabric = network.Fabric

// FabricPreset parameterizes a fabric (LogGP constants, MTU, circuit
// setup).
type FabricPreset = network.Preset

// The 2002-era fabric presets.
var (
	FastEthernet    = network.FastEthernet
	GigabitEthernet = network.GigabitEthernet
	Myrinet2000     = network.Myrinet2000
	QsNet           = network.QsNet
	InfiniBand4X    = network.InfiniBand4X
	OpticalCircuit  = network.OpticalCircuit
)

// FabricPresets returns all built-in presets in capability order.
func FabricPresets() []FabricPreset { return network.Presets() }

// FabricByName returns the built-in preset with the given name.
func FabricByName(name string) (FabricPreset, error) { return network.PresetByName(name) }

// ---- machines ----

// Machine is a simulated cluster: nodes x fabric on one kernel.
type Machine = machine.Machine

// MachineConfig describes a machine to build.
type MachineConfig = machine.Config

// Topology names packet-level wirings.
type Topology = machine.Topology

// Packet-level topologies.
const (
	TopoCrossbar  = machine.TopoCrossbar
	TopoFatTree   = machine.TopoFatTree
	TopoTorus2D   = machine.TopoTorus2D
	TopoTorus3D   = machine.TopoTorus3D
	TopoHypercube = machine.TopoHypercube
)

// NewMachine builds a simulated cluster.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// NewWormholeFabric builds the credit-flow-controlled wormhole fabric
// directly over a topology (for custom traffic studies; machines use
// MachineConfig.Wormhole).
func NewWormholeFabric(k *Kernel, p FabricPreset, g *TopologyGraph, bufferPackets int) *network.WormholeNet {
	return network.NewWormholeNet(k, p, g, bufferPackets)
}

// ---- messaging ----

// Rank is one SPMD process of a communicator.
type Rank = msg.Rank

// Comm is a communicator bound to a machine.
type Comm = msg.Comm

// MsgOptions configures the messaging layer: the eager limit, the
// allreduce algorithm and an optional message trace.
type MsgOptions = msg.Options

// Algo names an allreduce algorithm (MsgOptions.Allreduce).
type Algo = msg.Algo

// Allreduce algorithms; the zero MsgOptions runs recursive doubling.
const (
	AlgoRecursiveDoubling = msg.RecursiveDoubling
	AlgoRing              = msg.Ring
	AlgoBinomial          = msg.Binomial
)

// Wildcards for Rank.Recv.
const (
	AnySource = msg.AnySource
	AnyTag    = msg.AnyTag
)

// RunSPMD executes fn on every rank of machine m and returns the
// completion time.
func RunSPMD(m *Machine, opts MsgOptions, fn func(r *Rank)) (Time, error) {
	return msg.Run(m, opts, fn)
}

// NewComm returns a communicator for post-run statistics access.
func NewComm(m *Machine, opts MsgOptions) *Comm { return msg.NewComm(m, opts) }

// ---- workloads ----

// App is a parallel application skeleton.
type App = workload.App

// AppReport summarizes one application execution.
type AppReport = workload.Report

// Application skeletons.
type (
	// PingPong is the latency/bandwidth microbenchmark.
	PingPong = workload.PingPong
	// Stencil2D is an iterative Jacobi halo-exchange code.
	Stencil2D = workload.Stencil2D
	// FFT1D is a transpose-method distributed FFT.
	FFT1D = workload.FFT1D
	// EP is the embarrassingly parallel control kernel.
	EP = workload.EP
	// CG is a sparse conjugate-gradient-style solver.
	CG = workload.CG
	// HPL is a dense LU factorization in the Linpack mold.
	HPL = workload.HPL
	// MasterWorker is a task farm.
	MasterWorker = workload.MasterWorker
	// Sweep2D is a pipelined wavefront computation (Sn transport style).
	Sweep2D = workload.Sweep2D
)

// ExecuteApp runs an application skeleton on a machine.
func ExecuteApp(m *Machine, opts MsgOptions, app App) (AppReport, error) {
	return workload.Execute(m, opts, app)
}

// ---- scheduling ----

// Job is a batch job.
type Job = sched.Job

// TraceConfig parameterizes the synthetic workload generator.
type TraceConfig = sched.TraceConfig

// SchedPolicy decides which queued jobs start when state changes.
type SchedPolicy = sched.Policy

// SchedResult summarizes a scheduling run.
type SchedResult = sched.Result

// GangConfig parameterizes gang scheduling.
type GangConfig = sched.GangConfig

// Scheduling policies.
type (
	// FCFS runs jobs strictly in arrival order.
	FCFS = sched.FCFS
	// EASY is aggressive backfilling with one reservation.
	EASY = sched.EASY
	// Conservative backfilling reserves for every queued job.
	Conservative = sched.Conservative
)

// GenerateTrace produces a synthetic job trace.
func GenerateTrace(cfg TraceConfig) ([]*Job, error) { return sched.GenerateTrace(cfg) }

// ReadSWF parses a Standard Workload Format trace (Parallel Workloads
// Archive); maxNodes > 0 drops jobs wider than the target cluster.
func ReadSWF(r io.Reader, maxNodes int) ([]*Job, error) { return sched.ReadSWF(r, maxNodes) }

// Schedule runs jobs through a space-sharing policy.
func Schedule(nodes int, jobs []*Job, p SchedPolicy) (SchedResult, error) {
	return sched.Simulate(nodes, jobs, p)
}

// ScheduleGang runs jobs under gang scheduling.
func ScheduleGang(nodes int, jobs []*Job, cfg GangConfig) (SchedResult, error) {
	return sched.SimulateGang(nodes, jobs, cfg)
}

// ---- faults ----

// FaultSystem describes an N-node cluster's failure behavior. Its
// FirstFailureMean estimate takes a Monte Carlo pool first; nil runs the
// replications inline on the caller.
type FaultSystem = fault.System

// Checkpoint describes a checkpointed execution. Simulate and
// OptimalInterval take a Monte Carlo pool first; nil runs the
// replications inline on the caller.
type Checkpoint = fault.Checkpoint

// CheckpointResult summarizes checkpointed executions.
type CheckpointResult = fault.Result

// Young/Daly optimal checkpoint intervals.
var (
	YoungInterval = fault.YoungInterval
	DalyInterval  = fault.DalyInterval
)

// Distributions for lifetimes, repairs, and workloads.
type (
	// Dist is a sampleable distribution.
	Dist = stats.Dist
	// Exponential has rate events per unit time.
	Exponential = stats.Exponential
	// Weibull models infant mortality for Shape < 1.
	Weibull = stats.Weibull
	// LogUniform is uniform in log space.
	LogUniform = stats.LogUniform
	// ConstantDist always returns V.
	ConstantDist = stats.Constant
)

// ---- allocation ----

// NodeAllocator places jobs onto specific nodes.
type NodeAllocator = alloc.Allocator

// Allocators.
var (
	// NewScatterAllocator allocates any free nodes, lowest ids first.
	NewScatterAllocator = alloc.NewScatter
	// NewRandomScatterAllocator allocates uniformly random free nodes.
	NewRandomScatterAllocator = alloc.NewRandomScatter
	// NewContiguousTorusAllocator allocates axis-aligned boxes on a torus.
	NewContiguousTorusAllocator = alloc.NewContiguousTorus
)

// AllocResult summarizes an allocation-aware FCFS run.
type AllocResult = alloc.Result

// ScheduleWithPlacement runs jobs FCFS with explicit node placement.
func ScheduleWithPlacement(a NodeAllocator, g *TopologyGraph, jobs []*Job) (AllocResult, error) {
	return alloc.SimulateFCFS(a, g, jobs)
}

// TopologyGraph is an interconnect topology with deterministic routing
// and failure injection.
type TopologyGraph = topology.Graph

// Topology builders.
var (
	NewCrossbarTopology  = topology.Crossbar
	NewFatTreeTopology   = topology.FatTree
	NewTorus2DTopology   = topology.Torus2D
	NewTorus3DTopology   = topology.Torus3D
	NewHypercubeTopology = topology.Hypercube
)

// ---- management ----

// HealthMonitor models cluster health monitoring (flat vs tree
// aggregation): collector load, saturation, and failure-detection
// latency, analytic and simulated.
type HealthMonitor = mgmt.Monitor

// ---- storage ----

// Disk models one rotating commodity disk.
type Disk = storage.Disk

// DiskArray is a stripe set of identical disks.
type DiskArray = storage.Array

// IOSystem is a cluster I/O subsystem (node-local scratch or shared
// parallel-FS servers); its CheckpointTime derives the delta in Young's
// formula from hardware.
type IOSystem = storage.System

// I/O system modes.
const (
	IOLocalScratch  = storage.LocalScratch
	IOSharedServers = storage.SharedServers
)

// IDE2002 is the 2002 commodity disk (~40 MB/s, ~9 ms seek).
var IDE2002 = storage.IDE2002

// ---- cluster configurations ----

// ClusterSpec names a buildable configuration.
type ClusterSpec = cluster.Spec

// ClusterMetrics are the system-level consequences of a spec.
type ClusterMetrics = cluster.Metrics

// Constraint bounds a configuration search (budget, power, floor space).
type Constraint = cluster.Constraint

// BuildCluster materializes a spec against a roadmap.
func BuildCluster(s ClusterSpec, r *Roadmap) (ClusterMetrics, error) { return cluster.Build(s, r) }

// FitLargest returns the largest configuration satisfying a constraint.
func FitLargest(year float64, a Arch, fabric string, r *Roadmap, c Constraint) (ClusterMetrics, error) {
	return cluster.FitLargest(year, a, fabric, r, c)
}

// ---- trajectory explorer ----

// Scenario bundles projection assumptions.
type Scenario = core.Scenario

// Explorer projects scenarios under a constraint across years.
type Explorer = core.Explorer

// Crossing reports when a scenario reaches a target.
type Crossing = core.Crossing

// WaterfallStep is one rung of the innovation decomposition.
type WaterfallStep = core.WaterfallStep

// FrontierPoint is one Pareto-optimal configuration from
// Explorer.Frontier.
type FrontierPoint = core.FrontierPoint

// Built-in scenarios.
var (
	MooreOnly      = core.MooreOnly
	BladeScenario  = core.BladeScenario
	CMPScenario    = core.CMPScenario
	SoCScenario    = core.SoCScenario
	PIMScenario    = core.PIMScenario
	FabricScenario = core.FabricScenario
	AllInnovations = core.AllInnovations
	Scenarios      = core.Scenarios
)

// ---- experiments ----

// ExperimentTable is one experiment's output.
type ExperimentTable = experiments.Table

// Experiments returns the full suite: E1-E12 with E5b and E6b, and the
// extensions X1-X7.
func Experiments() []experiments.Spec { return experiments.All() }

// RunExperiments executes the whole suite one experiment at a time,
// printing tables to w in suite order. It is RunExperimentsParallel with
// one worker.
func RunExperiments(w io.Writer, quick bool) ([]*ExperimentTable, error) {
	return experiments.RunSuite(w, experiments.Options{Quick: quick, Workers: 1})
}

// RunExperimentsParallel executes the whole suite on a bounded worker
// pool (workers <= 0 selects one per CPU), printing tables to w in suite
// order. The experiments are independent, so output bytes are identical
// for any worker count; only wall clock changes. A failing experiment
// does not stop the others: its slot in the returned slice is nil and
// the joined error names it.
func RunExperimentsParallel(w io.Writer, quick bool, workers int) ([]*ExperimentTable, error) {
	return experiments.RunSuite(w, experiments.Options{Quick: quick, Workers: workers})
}
