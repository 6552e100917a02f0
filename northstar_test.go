package northstar_test

import (
	"strings"
	"testing"

	"northstar"
)

// These integration tests exercise the whole stack through the public
// facade only — the way a downstream user sees the library.

func TestFacadeEndToEndSimulation(t *testing.T) {
	nm, err := northstar.BuildNode(northstar.Conventional, northstar.DefaultRoadmap(), 2002)
	if err != nil {
		t.Fatal(err)
	}
	m, err := northstar.NewMachine(northstar.MachineConfig{
		Nodes: 16, Node: nm, Fabric: northstar.Myrinet2000(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := northstar.ExecuteApp(m, northstar.MsgOptions{}, northstar.Stencil2D{
		GridX: 512, GridY: 512, Iters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || rep.Efficiency <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFacadeSPMDWithCollectives(t *testing.T) {
	nm, _ := northstar.BuildNode(northstar.Blade, northstar.DefaultRoadmap(), 2004)
	m, err := northstar.NewMachine(northstar.MachineConfig{
		Nodes: 8, Node: nm, Fabric: northstar.InfiniBand4X(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	end, err := northstar.RunSPMD(m, northstar.MsgOptions{Allreduce: northstar.AlgoRing}, func(r *northstar.Rank) {
		r.Compute(1e8, 1e7)
		r.Allreduce(4096)
		r.Bcast(0, 1024)
		r.Alltoall(1024)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestFacadeHybridPlacement(t *testing.T) {
	nm, _ := northstar.BuildNode(northstar.SMPOnChip, northstar.DefaultRoadmap(), 2006)
	m, err := northstar.NewMachine(northstar.MachineConfig{
		Nodes: 4, Node: nm, Fabric: northstar.InfiniBand4X(), RanksPerNode: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	if _, err := northstar.RunSPMD(m, northstar.MsgOptions{}, func(r *northstar.Rank) {
		if r.Size() != 16 {
			panic("wrong communicator size")
		}
		r.Alltoall(512)
		counted++
	}); err != nil {
		t.Fatal(err)
	}
	if counted != 16 {
		t.Fatalf("ranks run = %d, want 16", counted)
	}
}

func TestFacadeTrajectory(t *testing.T) {
	e := northstar.Explorer{
		Constraint: northstar.Constraint{BudgetDollars: 5e6},
		LastYear:   2015,
	}
	c, err := e.FindCrossing(northstar.AllInnovations(), 1e14) // 100 TF sustained
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reached {
		t.Fatalf("100 TF for $5M never reached by 2015: %+v", c)
	}
	// Power-wall roadmap delays the same crossing.
	walled := northstar.AllInnovations()
	walled.Roadmap = northstar.PowerWallRoadmap()
	cw, err := e.FindCrossing(walled, 1e14)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Reached && cw.Year < c.Year {
		t.Fatalf("power wall accelerated the crossing: %.1f < %.1f", cw.Year, c.Year)
	}
}

func TestFacadeSchedulingAndSWF(t *testing.T) {
	trace, err := northstar.GenerateTrace(northstar.TraceConfig{
		Jobs: 300, MaxNodes: 64, Load: 0.8, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := northstar.Schedule(64, trace, northstar.EASY{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Jobs != len(trace) {
		t.Fatalf("result: %+v", res)
	}
	if _, err := northstar.ScheduleGang(64, trace, northstar.GangConfig{}); err != nil {
		t.Fatal(err)
	}

	// Two archive jobs (SWF fields: id, submit, wait, run, procs, ...,
	// requested procs, requested time), listed out of submit order.
	const swf = `2 60 -1 600 8 -1 -1 8 900 -1 1 -1 -1 -1 -1 -1 -1 -1
1 0 -1 3600 16 -1 -1 16 7200 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	jobs, err := northstar.ReadSWF(strings.NewReader(swf), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != 1 || jobs[0].Nodes != 16 || jobs[0].Estimate != 7200 {
		t.Fatalf("ReadSWF = %d jobs, first %+v", len(jobs), jobs[0])
	}
	if res, err := northstar.Schedule(64, jobs, northstar.FCFS{}); err != nil || res.Jobs != 2 {
		t.Fatalf("scheduling the SWF trace: %+v, %v", res, err)
	}
}

func TestFacadeFaultChain(t *testing.T) {
	// Derive checkpoint cost from the I/O system, then plan intervals.
	io := northstar.IOSystem{
		Mode:  northstar.IOLocalScratch,
		Nodes: 512,
		PerNode: northstar.DiskArray{
			Disks: 2, Disk: northstar.IDE2002(),
		},
	}
	delta, err := io.CheckpointTime(512 * 2e9)
	if err != nil {
		t.Fatal(err)
	}
	sys := northstar.FaultSystem{
		Nodes:    512,
		Lifetime: northstar.Exponential{Rate: 1 / float64(1000*northstar.Day)},
	}
	young := northstar.YoungInterval(delta, sys.MTBF())
	c := northstar.Checkpoint{
		Work: 48 * northstar.Hour, Interval: young, Overhead: delta,
		Restart: 5 * northstar.Minute, MTBF: sys.MTBF(),
	}
	res, err := c.Simulate(nil, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulFraction <= 0.5 || res.UsefulFraction > 1 {
		t.Fatalf("useful fraction = %g", res.UsefulFraction)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	specs := northstar.Experiments()
	if len(specs) < 16 {
		t.Fatalf("experiment registry has %d entries, want >= 16 (E1-E12 + X1-X4)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate experiment id %s", s.ID)
		}
		seen[s.ID] = true
	}
	for _, want := range []string{"E1", "E12", "X1", "X4"} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() northstar.Time {
		nm, _ := northstar.BuildNode(northstar.PIM, northstar.DefaultRoadmap(), 2006)
		m, err := northstar.NewMachine(northstar.MachineConfig{
			Nodes: 9, Node: nm, Fabric: northstar.QsNet(), Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		end, err := northstar.RunSPMD(m, northstar.MsgOptions{}, func(r *northstar.Rank) {
			r.Alltoall(3000)
			r.Allreduce(999)
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("facade runs nondeterministic: %v vs %v", a, b)
	}
}

func TestFacadeClusterMetricsString(t *testing.T) {
	m, err := northstar.BuildCluster(northstar.ClusterSpec{
		Name: "demo", Year: 2004, Arch: northstar.Blade, Nodes: 256, Fabric: "myrinet-2000",
	}, northstar.DefaultRoadmap())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "demo") {
		t.Fatalf("String() = %q", m.String())
	}
	sustained, eff := m.LinpackEstimate()
	if sustained <= 0 || eff <= 0 || eff >= 1 {
		t.Fatalf("linpack = %g at eff %g", sustained, eff)
	}
}

func TestFacadeSurfaceSmoke(t *testing.T) {
	// Touch the thin wrappers the deeper tests don't reach.
	if len(northstar.Arches()) != 5 {
		t.Errorf("arches = %d", len(northstar.Arches()))
	}
	if len(northstar.FabricPresets()) != 6 {
		t.Errorf("presets = %d", len(northstar.FabricPresets()))
	}
	if _, err := northstar.FabricByName("qsnet-elan3"); err != nil {
		t.Error(err)
	}
	k := northstar.NewKernel(1)
	fired := false
	k.After(northstar.Second, func() { fired = true })
	if k.Run() != northstar.Second || !fired {
		t.Error("kernel wrapper broken")
	}
	if northstar.PowerWallRoadmap().At(northstar.WattsPerSocket, 2010) >=
		northstar.DefaultRoadmap().At(northstar.WattsPerSocket, 2010) {
		t.Error("power wall roadmap not flattening power")
	}
	if northstar.DalyInterval(northstar.Minute, northstar.Hour) <= 0 {
		t.Error("Daly wrapper broken")
	}
	g := northstar.NewTorus2DTopology(4, 4)
	if g.NumEndpoints() != 16 {
		t.Error("topology wrapper broken")
	}
	a := northstar.NewScatterAllocator(16)
	nodes, ok := a.Alloc(4)
	if !ok || len(nodes) != 4 {
		t.Error("allocator wrapper broken")
	}
	mon := northstar.HealthMonitor{Nodes: 1000, Fanout: 16}
	if mon.Levels() < 2 {
		t.Error("monitor wrapper broken")
	}
	io := northstar.IOSystem{Mode: northstar.IOSharedServers, Nodes: 8, Servers: 2,
		ServerArray:            northstar.DiskArray{Disks: 2, Disk: northstar.IDE2002()},
		FabricBandwidthPerNode: 1e8}
	if io.AggregateBandwidth() <= 0 {
		t.Error("io wrapper broken")
	}
}

func TestFacadePlacementAndWormhole(t *testing.T) {
	g := northstar.NewTorus3DTopology(4, 4, 4)
	trace, err := northstar.GenerateTrace(northstar.TraceConfig{Jobs: 80, MaxNodes: 64, Load: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := northstar.ScheduleWithPlacement(northstar.NewContiguousTorusAllocator(4, 4, 4), g, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDilation <= 0 {
		t.Errorf("placement result: %+v", res)
	}
	ft := northstar.NewFatTreeTopology(4, 2)
	k := northstar.NewKernel(1)
	wh := northstar.NewWormholeFabric(k, northstar.InfiniBand4X(), ft, 4)
	delivered := false
	wh.Send(0, 9, 1<<16, nil, func() { delivered = true })
	k.Run()
	if !delivered {
		t.Error("wormhole wrapper broken")
	}
	e := northstar.Explorer{Constraint: northstar.Constraint{BudgetDollars: 5e6}}
	pts, err := e.Frontier(northstar.DefaultRoadmap(), 2006)
	if err != nil || len(pts) == 0 {
		t.Errorf("frontier: %d points, %v", len(pts), err)
	}
	steps, err := e.Waterfall(2008, northstar.Scenarios())
	if err != nil || len(steps) != 7 {
		t.Errorf("waterfall: %d steps, %v", len(steps), err)
	}
}
