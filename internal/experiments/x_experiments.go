package experiments

import (
	"fmt"

	"northstar/internal/alloc"
	"northstar/internal/cluster"
	"northstar/internal/core"
	"northstar/internal/fault"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/mgmt"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sched"
	"northstar/internal/sim"
	"northstar/internal/storage"
	"northstar/internal/tech"
	"northstar/internal/topology"
	"northstar/internal/workload"
)

// The X experiments go beyond the keynote's explicit claims into its
// "optional/extension" territory: hybrid placement on SMP nodes,
// degraded operation after fabric failures, the power wall the decade
// actually delivered, and I/O-limited checkpointing.

// X1Hybrid evaluates hybrid placement with the silicon held constant:
// the same total compute and rank count deployed as many small
// single-rank nodes (each with its own NIC) versus a quarter as many
// fat SMP-on-chip nodes running 4 ranks each (shared memory inside,
// one NIC shared — a quarter of the fabric ports). Nearest-neighbor
// codes move most of their traffic inside the node and should hold
// their own; the alltoall-heavy FFT pays for the shared NIC.
func X1Hybrid(quick bool) (*Table, error) {
	totalRanks := 64
	if quick {
		totalRanks = 32
	}
	t := &Table{
		ID: "X1",
		Title: fmt.Sprintf("Hybrid vs flat placement at equal silicon, %d ranks, 2006 CMP parts, infiniband",
			totalRanks),
		Columns: []string{"app", "flat-ms", "hybrid-ms", "hybrid/flat"},
		Notes: []string{
			"flat: one rank per quarter-node part with its own NIC; hybrid: 4 ranks per full node, 1/4 the NICs",
			"expected shape: halo codes ~hold their own on hybrid (intra-node traffic is free NIC-wise); alltoall pays for NIC sharing",
		},
	}
	full := node.MustBuild(node.SMPOnChip, roadmap2002, 2006)
	quarter := full
	quarter.PeakFlops /= 4
	quarter.MemBandwidth /= 4
	quarter.MemBytes /= 4
	apps := []workload.App{
		workload.Stencil2D{GridX: 1024, GridY: 1024, Iters: 20},
		workload.CG{N: 1 << 18, NNZPerRow: 27, Iters: 25},
		workload.FFT1D{N: 1 << 18},
	}
	for _, app := range apps {
		flatM, err := machine.New(machine.Config{
			Nodes: totalRanks, Node: quarter, Fabric: network.InfiniBand4X(), Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		flat, err := workload.Execute(flatM, msg.Options{}, app)
		if err != nil {
			return nil, err
		}
		hybM, err := machine.New(machine.Config{
			Nodes: totalRanks / 4, Node: full, Fabric: network.InfiniBand4X(),
			RanksPerNode: 4, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		hyb, err := workload.Execute(hybM, msg.Options{}, app)
		if err != nil {
			return nil, err
		}
		t.AddRow(app.Name(),
			float64(flat.Elapsed)*1e3,
			float64(hyb.Elapsed)*1e3,
			float64(hyb.Elapsed)/float64(flat.Elapsed))
	}
	return t, nil
}

// X2Degraded measures graceful degradation: alltoall time on a packet
// fat tree as progressively more switch-level links fail (rerouted
// around, never disconnecting the endpoints).
func X2Degraded(quick bool) (*Table, error) {
	p := 64
	bytes := int64(256 << 10)
	if quick {
		p = 16
		bytes = 64 << 10
	}
	t := &Table{
		ID:      "X2",
		Title:   fmt.Sprintf("Degraded fat tree: alltoall (%d ranks) vs failed core links", p),
		Columns: []string{"failed-links", "alltoall-ms", "slowdown"},
		Notes: []string{
			"expected shape: graceful degradation — each lost core link costs bandwidth, not connectivity",
		},
	}
	var base sim.Time
	for _, failures := range []int{0, 1, 2, 4, 8} {
		m, err := machine.New(machine.Config{
			Nodes: p, Node: node.MustBuild(node.Conventional, roadmap2002, 2002),
			Fabric: network.InfiniBand4X(), PacketLevel: true,
			Topology: machine.TopoFatTree, Seed: 9,
		})
		if err != nil {
			return nil, err
		}
		pkt, ok := m.Fabric().(*network.PacketNet)
		if !ok {
			return nil, fmt.Errorf("experiments: expected packet fabric, got %T", m.Fabric())
		}
		if failed := pkt.Graph().FailCoreLinks(failures); failed < failures {
			return nil, fmt.Errorf("experiments: could only fail %d of %d links", failed, failures)
		}
		end, err := msg.Run(m, msg.Options{}, func(r *msg.Rank) { r.Alltoall(bytes) })
		if err != nil {
			return nil, err
		}
		if failures == 0 {
			base = end
		}
		t.AddRow(failures, float64(end)*1e3, float64(end)/float64(base))
	}
	return t, nil
}

// X3PowerWall replays the trajectory study under the power-wall roadmap
// (frequency stalls in 2005): how much of the decade's growth survives,
// and how completely SMP-on-chip rescues it.
func X3PowerWall() (*Table, error) {
	t := &Table{
		ID:      "X3",
		Title:   "Power-wall sensitivity: sustained TF at 2010, $20M, default vs stalled-frequency roadmap",
		Columns: []string{"scenario", "default-roadmap-TF", "power-wall-TF", "retained"},
		Notes: []string{
			"expected shape: conventional scaling collapses under the wall; the CMP scenario retains most of its trajectory — cores replace clocks",
		},
	}
	e := core.Explorer{Constraint: cluster.Constraint{BudgetDollars: 20e6}}
	for _, base := range []core.Scenario{core.MooreOnly(), core.CMPScenario(), core.AllInnovations()} {
		walled := base
		walled.Roadmap = tech.PowerWall2005()
		mDef, err := e.Best(base, 2010)
		if err != nil {
			return nil, err
		}
		mWall, err := e.Best(walled, 2010)
		if err != nil {
			return nil, err
		}
		vDef, vWall := e.Score(mDef), e.Score(mWall)
		t.AddRow(base.Name, vDef/1e12, vWall/1e12, vWall/vDef)
	}
	return t, nil
}

// X4CheckpointIO derives the checkpoint cost from the I/O system rather
// than assuming it: a 2006-era 4096-node machine checkpointing its
// memory to node-local scratch versus a shared 32-server parallel file
// system, and what that does to achievable efficiency.
func X4CheckpointIO(quick bool) (*Table, error) {
	runs := 150
	if quick {
		runs = 40
	}
	t := &Table{
		ID:      "X4",
		Title:   "I/O-limited checkpointing: 4096 nodes at 2006, 1-week job",
		Columns: []string{"io-system", "aggregate-GB/s", "delta", "young", "useful-frac"},
		Notes: []string{
			"expected shape: node-local scratch scales with the machine and keeps delta small; shared servers make delta the binding constraint on efficiency",
		},
	}
	const nodes = 4096
	nm := node.MustBuild(node.Conventional, roadmap2002, 2006)
	memBytes := float64(nodes) * nm.MemBytes
	mtbf := 1000 * sim.Day / nodes

	systems := []struct {
		name string
		sys  storage.System
	}{
		{"local-scratch-1-disk", storage.System{
			Mode: storage.LocalScratch, Nodes: nodes,
			PerNode: storage.Array{Disks: 1, Disk: storage.IDE2002()},
		}},
		{"shared-32-servers", storage.System{
			Mode: storage.SharedServers, Nodes: nodes, Servers: 32,
			ServerArray:            storage.Array{Disks: 8, Disk: storage.IDE2002()},
			FabricBandwidthPerNode: 110e6,
		}},
	}
	for _, s := range systems {
		delta, err := s.sys.CheckpointTime(memBytes)
		if err != nil {
			return nil, err
		}
		c := fault.Checkpoint{
			Work:     168 * sim.Hour,
			Overhead: delta,
			Restart:  10 * sim.Minute,
			MTBF:     mtbf,
			Interval: sim.Hour,
		}
		young := fault.YoungInterval(delta, mtbf)
		c.Interval = young
		res, err := c.Simulate(mc.Default(), runs, 17)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name,
			s.sys.AggregateBandwidth()/1e9,
			delta.String(),
			young.String(),
			res.UsefulFraction)
	}
	return t, nil
}

// X5Monitoring operationalizes the keynote's management-software claim:
// health-monitoring scalability — flat (every node reports to one
// master) versus a 16-ary reporting tree — as the cluster grows, with
// the analytic detection latency cross-checked by discrete-event
// simulation at the smaller sizes.
func X5Monitoring(quick bool) (*Table, error) {
	sizes := []int{128, 1024, 8192, 65536}
	simLimit := 1024 // DES validation up to this size
	if quick {
		sizes = []int{128, 1024, 8192}
		simLimit = 128
	}
	t := &Table{
		ID:    "X5",
		Title: "Health monitoring at scale: flat master vs 16-ary reporting tree (1 s heartbeats)",
		Columns: []string{"nodes", "flat-load/s", "flat-detect", "tree-levels",
			"tree-detect", "tree-detect-simulated"},
		Notes: []string{
			"expected shape: the flat master saturates in the thousands of nodes (detection unbounded); the tree holds detection near 3 s at any scale, paying only ~50 ms per level",
		},
	}
	for _, n := range sizes {
		flat := mgmt.Monitor{Nodes: n, Period: sim.Second}
		tree := mgmt.Monitor{Nodes: n, Period: sim.Second, Fanout: 16}
		flatDetect := "unbounded (saturated)"
		if !flat.Saturated() {
			flatDetect = flat.DetectionLatency().String()
		}
		simulated := "-"
		if n <= simLimit {
			got, err := tree.SimulateDetection(5)
			if err != nil {
				return nil, err
			}
			simulated = got.String()
		}
		t.AddRow(n,
			flat.CollectorLoad(),
			flatDetect,
			tree.Levels(),
			tree.DetectionLatency().String(),
			simulated)
	}
	return t, nil
}

// X6Placement quantifies the allocation trade-off on a 512-node 8x8x8
// torus: contiguous partitions (compact neighborhoods, fragmentation
// and internal over-allocation) versus scattered allocation (perfect
// packing, dilated communication), FCFS placement over the same trace.
func X6Placement(quick bool) (*Table, error) {
	jobs := 1500
	if quick {
		jobs = 300
	}
	t := &Table{
		ID:    "X6",
		Title: fmt.Sprintf("Node placement on an 8x8x8 torus, %d-job FCFS trace, load 0.8", jobs),
		Columns: []string{"allocator", "utilization", "mean-wait-min", "mean-dilation-hops",
			"over-allocation", "fragmentation-stalls"},
		Notes: []string{
			"expected shape: scatter packs tighter (higher utilization, no stalls) but dilates every job's communication; contiguous keeps jobs compact at the cost of stranded nodes",
		},
	}
	// Jobs up to 128 wide on the 512-node machine: several coexist, so
	// packing and locality both matter.
	trace, err := sched.GenerateTrace(sched.TraceConfig{Jobs: jobs, MaxNodes: 128, Load: 0.8, Seed: 31})
	if err != nil {
		return nil, err
	}
	// The generator offered load 0.8 against 128 nodes; compress arrivals
	// to offer the same load to the 512-node machine.
	for _, j := range trace {
		j.Submit /= 4
	}
	clone := func() []*sched.Job {
		out := make([]*sched.Job, len(trace))
		for i, j := range trace {
			cp := *j
			out[i] = &cp
		}
		return out
	}
	allocators := []alloc.Allocator{
		alloc.NewScatter(512),
		alloc.NewRandomScatter(512, 31),
		alloc.NewContiguousTorus(8, 8, 8),
	}
	// One task per allocator on the mc pool, all sharing ONE torus:
	// topology.Graph is a concurrent-safe distance oracle (analytic O(1)
	// Dist on tori), so the three tasks no longer pay for three graph
	// builds. Each task still owns its allocator and trace clone; rows
	// are added in allocator order.
	g := topology.Torus3D(8, 8, 8)
	results := make([]alloc.Result, len(allocators))
	errs := make([]error, len(allocators))
	mc.ForEach(mc.Default(), len(allocators), func(i int) {
		results[i], errs[i] = alloc.SimulateFCFS(allocators[i], g, clone())
	})
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(res.Allocator,
			res.Utilization,
			float64(res.MeanWait)/60,
			res.MeanDilation,
			res.MeanOverAllocation,
			res.FragmentationStalls)
	}
	return t, nil
}

// X7Congestion shows congestion trees under credit flow control: a
// victim flow that only shares switches with an incast hotspot slows
// down as the incast grows, and deeper link buffers absorb more of it —
// the behavior the reservation-based packet model cannot express, and
// the problem the 2002 fabric designers tuned buffer depths against.
func X7Congestion(quick bool) (*Table, error) {
	incasts := []int{0, 2, 4, 8, 12}
	depths := []int{2, 8}
	if quick {
		incasts = []int{0, 4, 12}
	}
	t := &Table{
		ID:      "X7",
		Title:   "Congestion trees on a wormhole fat tree: victim-flow slowdown vs incast degree",
		Columns: []string{"incast-flows", "victim-ms(buf=2)", "slowdown(buf=2)", "victim-ms(buf=8)", "slowdown(buf=8)"},
		Notes: []string{
			"victim: 256 KB flow to an idle destination sharing switches with the hotspot; incast: 4 MB flows to one endpoint",
			"expected shape: slowdown grows with incast degree",
			"finding: buffer depth barely helps a victim of a *sustained* incast — buffers fill and the congestion tree forms regardless (depth only absorbs transients); deeper buffers even hold slightly more hotspot data in shared switches",
		},
	}
	// One kernel, fat tree and fabric per buffer depth, reset between
	// runs: a reset fabric replays a fresh one exactly and keeps its
	// packet pool and link queues. victim[d] holds the victim flow's
	// delivery times at depths[d]: alone first, then beside each
	// incasts[i] incast flows.
	victim := make([][]sim.Time, len(depths))
	for d, depth := range depths {
		k := sim.New(1)
		wh := network.NewWormholeNet(k, network.InfiniBand4X(), topology.FatTree(4, 2), depth)
		run := func(incast int) sim.Time {
			k.Reset()
			wh.Reset()
			for i := 0; i < incast; i++ {
				wh.Send(4+i, 1, 4<<20, nil, nil)
			}
			var done sim.Time
			wh.Send(5, 2, 256<<10, nil, func() { done = k.Now() })
			k.Run()
			return done
		}
		victim[d] = append(victim[d], run(0))
		for _, incast := range incasts {
			victim[d] = append(victim[d], run(incast))
		}
	}
	for i, incast := range incasts {
		row := []any{incast}
		for d := range depths {
			v := victim[d][1+i]
			row = append(row, float64(v)*1e3, float64(v)/float64(victim[d][0]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
