package workload

import (
	"strings"
	"testing"

	"northstar/internal/machine"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/tech"
)

func mach(t testing.TB, nodes int, arch node.Arch, preset network.Preset) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{
		Nodes:  nodes,
		Node:   node.MustBuild(arch, tech.Default2002(), 2002),
		Fabric: preset,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t testing.TB, m *machine.Machine, app App) Report {
	t.Helper()
	rep, err := Execute(m, msg.Options{}, app)
	if err != nil {
		t.Fatalf("%s: %v", app.Name(), err)
	}
	return rep
}

func TestAllAppsCompleteOnAllFabrics(t *testing.T) {
	apps := []App{
		PingPong{Bytes: 4096, Reps: 10},
		Stencil2D{GridX: 256, GridY: 256, Iters: 5},
		FFT1D{N: 1 << 14},
		EP{FlopsPerRank: 1e8},
		CG{N: 1 << 14, NNZPerRow: 27, Iters: 5},
		HPL{N: 512, NB: 64},
		MasterWorker{Tasks: 20, TaskFlops: 1e7, ResultBytes: 1024},
	}
	for _, preset := range network.Presets() {
		for _, app := range apps {
			m := mach(t, 8, node.Conventional, preset)
			rep := run(t, m, app)
			if rep.Elapsed <= 0 {
				t.Errorf("%s on %s: elapsed %v", app.Name(), preset.Name, rep.Elapsed)
			}
		}
	}
}

func TestReportFields(t *testing.T) {
	m := mach(t, 4, node.Conventional, network.Myrinet2000())
	rep := run(t, m, EP{FlopsPerRank: 1e9})
	if rep.Nodes != 4 {
		t.Errorf("nodes = %d", rep.Nodes)
	}
	if rep.TotalFlops < 4e9 {
		t.Errorf("total flops = %g, want >= 4e9", rep.TotalFlops)
	}
	if rep.SustainedFlops <= 0 || rep.Efficiency <= 0 || rep.Efficiency > 1 {
		t.Errorf("sustained=%g efficiency=%g", rep.SustainedFlops, rep.Efficiency)
	}
	if !strings.Contains(rep.String(), "ep on 4 nodes") {
		t.Errorf("String() = %q", rep.String())
	}
}

func TestEPScalesNearlyPerfectly(t *testing.T) {
	// Embarrassingly parallel: same per-rank work, so elapsed time should
	// be nearly flat as ranks grow (within a few percent for the final
	// allreduce).
	t1 := run(t, mach(t, 2, node.Conventional, network.GigabitEthernet()), EP{FlopsPerRank: 1e9}).Elapsed
	t2 := run(t, mach(t, 32, node.Conventional, network.GigabitEthernet()), EP{FlopsPerRank: 1e9}).Elapsed
	if ratio := float64(t2) / float64(t1); ratio > 1.05 {
		t.Errorf("EP 32-rank/2-rank time ratio = %.3f, want ~1", ratio)
	}
}

func TestStencilSpeedsUpWithNodes(t *testing.T) {
	small := run(t, mach(t, 4, node.Conventional, network.Myrinet2000()),
		Stencil2D{GridX: 1024, GridY: 1024, Iters: 10}).Elapsed
	large := run(t, mach(t, 16, node.Conventional, network.Myrinet2000()),
		Stencil2D{GridX: 1024, GridY: 1024, Iters: 10}).Elapsed
	speedup := float64(small) / float64(large)
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("stencil 4->16 node speedup = %.2f, want ~4 (strong scaling)", speedup)
	}
}

func TestPIMWinsStencilButNotHPL(t *testing.T) {
	// The PIM claim (E4): memory-bound stencil runs faster on PIM nodes,
	// compute-bound HPL runs faster on conventional nodes.
	stencil := Stencil2D{GridX: 1024, GridY: 1024, Iters: 10}
	conv := run(t, mach(t, 8, node.Conventional, network.Myrinet2000()), stencil).Elapsed
	pim := run(t, mach(t, 8, node.PIM, network.Myrinet2000()), stencil).Elapsed
	if pim >= conv {
		t.Errorf("stencil: PIM %v not faster than conventional %v", pim, conv)
	}
	hpl := HPL{N: 1024, NB: 64}
	convH := run(t, mach(t, 8, node.Conventional, network.Myrinet2000()), hpl).Elapsed
	pimH := run(t, mach(t, 8, node.PIM, network.Myrinet2000()), hpl).Elapsed
	if pimH <= convH {
		t.Errorf("HPL: PIM %v faster than conventional %v; dense compute should not win on PIM", pimH, convH)
	}
}

func TestCGSensitiveToLatency(t *testing.T) {
	// CG does two tiny allreduces per iteration: the latency gap between
	// Fast Ethernet and QsNet should show up strongly.
	cg := CG{N: 1 << 16, NNZPerRow: 27, Iters: 50}
	slow := run(t, mach(t, 16, node.Conventional, network.FastEthernet()), cg).Elapsed
	fast := run(t, mach(t, 16, node.Conventional, network.QsNet()), cg).Elapsed
	if float64(slow)/float64(fast) < 1.5 {
		t.Errorf("CG fast-ethernet %v vs qsnet %v: latency should matter (>1.5x)", slow, fast)
	}
}

func TestHPLEfficiencyReasonable(t *testing.T) {
	// Efficiency rises with problem size (comm is O(N^2), compute O(N^3));
	// use a size where compute dominates, as a real HPL run would.
	rep := run(t, mach(t, 8, node.Conventional, network.Myrinet2000()), HPL{N: 8192, NB: 128})
	if rep.Efficiency < 0.3 {
		t.Errorf("HPL efficiency = %.2f, want >= 0.3", rep.Efficiency)
	}
	// 2/3 N^3 flops, within a factor allowing the panel/update split.
	n := 8192.0
	if rep.TotalFlops < 0.5*(2.0/3.0)*n*n*n {
		t.Errorf("HPL flops = %g, want near 2/3 N^3 = %g", rep.TotalFlops, 2.0/3.0*n*n*n)
	}
}

func TestMasterWorkerAllTasksDone(t *testing.T) {
	for _, workers := range []int{2, 4, 30} {
		m := mach(t, workers+1, node.Conventional, network.GigabitEthernet())
		app := MasterWorker{Tasks: 17, TaskFlops: 1e7, ResultBytes: 256}
		rep := run(t, m, app)
		// 17 tasks' worth of flops (plus nothing else).
		want := 17 * 1e7
		if rep.TotalFlops < want*0.99 || rep.TotalFlops > want*1.01 {
			t.Errorf("%d workers: flops = %g, want %g", workers, rep.TotalFlops, want)
		}
	}
}

func TestMasterWorkerFewerTasksThanWorkers(t *testing.T) {
	m := mach(t, 10, node.Conventional, network.GigabitEthernet())
	rep := run(t, m, MasterWorker{Tasks: 3, TaskFlops: 1e7, ResultBytes: 64})
	want := 3 * 1e7
	if rep.TotalFlops < want*0.99 || rep.TotalFlops > want*1.01 {
		t.Errorf("flops = %g, want %g", rep.TotalFlops, want)
	}
}

func TestProcessGrid(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {16, 4, 4}, {12, 3, 4}, {7, 1, 7},
	}
	for _, c := range cases {
		px, py := processGrid(c.p)
		if px*py != c.p {
			t.Errorf("processGrid(%d) = %dx%d, does not cover", c.p, px, py)
		}
		if px != c.px || py != c.py {
			t.Errorf("processGrid(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
	}
}

func TestFFTUsesAlltoallTraffic(t *testing.T) {
	m := mach(t, 8, node.Conventional, network.InfiniBand4X())
	rep := run(t, m, FFT1D{N: 1 << 16})
	// Each rank sends (local/p)*16 bytes to each of p-1 peers, plus
	// control traffic.
	local := int64(1<<16) / 8
	minBytes := int64(8) * (local / 8 * 16) * 7
	if rep.BytesSent < minBytes {
		t.Errorf("FFT moved %d bytes, want >= %d (alltoall volume)", rep.BytesSent, minBytes)
	}
}

func TestExecuteWrapsErrors(t *testing.T) {
	m := mach(t, 1, node.Conventional, network.GigabitEthernet())
	_, err := Execute(m, msg.Options{}, PingPong{Bytes: 8})
	if err == nil || !strings.Contains(err.Error(), "pingpong") {
		t.Fatalf("err = %v, want wrapped pingpong failure", err)
	}
}

func BenchmarkStencil16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mach(b, 16, node.Conventional, network.Myrinet2000())
		if _, err := Execute(m, msg.Options{}, Stencil2D{GridX: 512, GridY: 512, Iters: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSweepCompletes(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		m := mach(t, p, node.Conventional, network.Myrinet2000())
		rep := run(t, m, Sweep2D{NX: 256, NY: 256, Blocks: 4, Sweeps: 2})
		if rep.Elapsed <= 0 {
			t.Fatalf("p=%d: elapsed %v", p, rep.Elapsed)
		}
	}
}

func TestSweepPipeliningHelps(t *testing.T) {
	// Same total work, more pipeline stages: the wavefront fills faster,
	// so 8 blocks must beat 1 block on a 4x4 process grid.
	one := run(t, mach(t, 16, node.Conventional, network.Myrinet2000()),
		Sweep2D{NX: 2048, NY: 2048, Blocks: 1, Sweeps: 2}).Elapsed
	eight := run(t, mach(t, 16, node.Conventional, network.Myrinet2000()),
		Sweep2D{NX: 2048, NY: 2048, Blocks: 8, Sweeps: 2}).Elapsed
	if eight >= one {
		t.Fatalf("8-block sweep %v not faster than 1-block %v", eight, one)
	}
	// Pipeline model: T ~ (px+py-2+B) x stage. For px=py=4, B=1: 7 stages
	// of full work; B=8: 14 stages of 1/8 work => ~4x faster ideally.
	speedup := float64(one) / float64(eight)
	if speedup < 2 || speedup > 5 {
		t.Errorf("pipelining speedup = %.2f, want ~4 (pipeline model)", speedup)
	}
}

func TestSweepSerializedByWavefront(t *testing.T) {
	// A sweep on P ranks is NOT embarrassingly parallel: with one block,
	// completion takes ~(px+py-1) stage times, so elapsed time on 16
	// ranks is far above work/16.
	m := mach(t, 16, node.Conventional, network.QsNet())
	rep := run(t, m, Sweep2D{NX: 1024, NY: 1024, Blocks: 1, Sweeps: 1})
	perRankWork := rep.MeanComputeTime
	// Wavefront fill means elapsed >= ~3x a single rank's compute share.
	if rep.Elapsed < 3*perRankWork {
		t.Errorf("elapsed %v vs per-rank compute %v: wavefront should serialize", rep.Elapsed, perRankWork)
	}
}
