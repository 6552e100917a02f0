package node

import (
	"math"
	"testing"
	"testing/quick"

	"northstar/internal/tech"
)

func roadmap() *tech.Roadmap { return tech.Default2002() }

func TestBuildAllArches(t *testing.T) {
	r := roadmap()
	for _, a := range Arches() {
		for _, year := range []float64{2002, 2006, 2010} {
			m, err := Build(a, r, year)
			if err != nil {
				t.Fatalf("Build(%s, %g): %v", a, year, err)
			}
			if m.PeakFlops <= 0 || m.MemBytes <= 0 || m.MemBandwidth <= 0 ||
				m.Watts <= 0 || m.Cost <= 0 || m.RackUnits <= 0 {
				t.Errorf("Build(%s, %g) has non-positive fields: %+v", a, year, m)
			}
		}
	}
}

func TestBuildUnknownArch(t *testing.T) {
	if _, err := Build("quantum", roadmap(), 2002); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

// TestBuildYearRange: Build takes the years in [MinYear, MaxYear] and
// nothing else. An infinite year once hung cmpCores, NaN built a NaN
// machine and 1e9 one of +Inf flop/s.
func TestBuildYearRange(t *testing.T) {
	for _, year := range []float64{MinYear, MaxYear} {
		if _, err := Build(SMPOnChip, roadmap(), year); err != nil {
			t.Errorf("year %g: %v", year, err)
		}
	}
	for _, year := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e9, MinYear - 1, MaxYear + 1} {
		if _, err := Build(SMPOnChip, roadmap(), year); err == nil {
			t.Errorf("year %g accepted", year)
		}
	}
}

func TestConventional2002Calibration(t *testing.T) {
	// The 2002 anchor: a dual-socket Xeon node near 10 GF peak, ~2.4 GB
	// memory, a few hundred watts, a few thousand dollars.
	m := MustBuild(Conventional, roadmap(), 2002)
	if m.PeakFlops < 8e9 || m.PeakFlops > 12e9 {
		t.Errorf("2002 conventional peak = %g, want ~9.6e9", m.PeakFlops)
	}
	if m.Watts < 150 || m.Watts > 400 {
		t.Errorf("2002 conventional power = %g W, want 150-400", m.Watts)
	}
	if m.Cost < 2000 || m.Cost > 8000 {
		t.Errorf("2002 conventional cost = %g, want $2k-8k", m.Cost)
	}
	if m.CoresPerSocket != 1 {
		t.Errorf("2002 cores/socket = %d, want 1", m.CoresPerSocket)
	}
}

func TestBladeWinsDensity(t *testing.T) {
	r := roadmap()
	for _, year := range []float64{2002, 2006, 2010} {
		conv := MustBuild(Conventional, r, year)
		blade := MustBuild(Blade, r, year)
		if blade.NodesPerRack() < 3*conv.NodesPerRack() {
			t.Errorf("year %g: blade %d nodes/rack vs conventional %d; want >= 3x",
				year, blade.NodesPerRack(), conv.NodesPerRack())
		}
		if blade.FlopsPerRackUnit() <= conv.FlopsPerRackUnit() {
			t.Errorf("year %g: blade flops/U %g <= conventional %g",
				year, blade.FlopsPerRackUnit(), conv.FlopsPerRackUnit())
		}
		// Blade trades some per-node peak for the density.
		if blade.PeakFlops >= conv.PeakFlops {
			t.Errorf("year %g: blade peak %g >= conventional %g", year, blade.PeakFlops, conv.PeakFlops)
		}
	}
}

func TestCMPWinsEfficiencyAfterArrival(t *testing.T) {
	r := roadmap()
	// Pre-2005 the CMP node is essentially conventional.
	cmp2002 := MustBuild(SMPOnChip, r, 2002)
	if cmp2002.CoresPerSocket != 1 {
		t.Errorf("CMP in 2002 has %d cores, want 1", cmp2002.CoresPerSocket)
	}
	// By 2008 multicore multiplies flops within roughly the same socket
	// power and cost, so flops/W and flops/$ must beat conventional.
	conv := MustBuild(Conventional, r, 2008)
	cmp := MustBuild(SMPOnChip, r, 2008)
	if cmp.CoresPerSocket < 2 {
		t.Fatalf("CMP in 2008 has %d cores, want >= 2", cmp.CoresPerSocket)
	}
	if cmp.FlopsPerWatt() <= conv.FlopsPerWatt() {
		t.Errorf("2008 CMP flops/W %g <= conventional %g", cmp.FlopsPerWatt(), conv.FlopsPerWatt())
	}
	if cmp.FlopsPerDollar() <= conv.FlopsPerDollar() {
		t.Errorf("2008 CMP flops/$ %g <= conventional %g", cmp.FlopsPerDollar(), conv.FlopsPerDollar())
	}
	// ...but the memory wall worsens: bytes/flop drops below conventional.
	if cmp.BytesPerFlop() >= conv.BytesPerFlop() {
		t.Errorf("2008 CMP bytes/flop %g >= conventional %g; memory wall should bite",
			cmp.BytesPerFlop(), conv.BytesPerFlop())
	}
}

func TestCMPCoreSchedule(t *testing.T) {
	cases := []struct {
		year  float64
		cores int
	}{
		{2002, 1}, {2004.9, 1}, {2005, 2}, {2006.9, 2}, {2007, 4}, {2009, 8}, {2011, 16},
	}
	for _, c := range cases {
		if got := cmpCores(c.year); got != c.cores {
			t.Errorf("cmpCores(%g) = %d, want %d", c.year, got, c.cores)
		}
	}
}

func TestPIMWinsMemoryBandwidth(t *testing.T) {
	r := roadmap()
	for _, year := range []float64{2002, 2006, 2010} {
		conv := MustBuild(Conventional, r, year)
		pim := MustBuild(PIM, r, year)
		if pim.BytesPerFlop() < 4*conv.BytesPerFlop() {
			t.Errorf("year %g: PIM bytes/flop %g, conventional %g; want >= 4x",
				year, pim.BytesPerFlop(), conv.BytesPerFlop())
		}
		// PIM must NOT win peak flops — it trades peak for bandwidth.
		if pim.PeakFlops > conv.PeakFlops {
			t.Errorf("year %g: PIM peak %g > conventional %g", year, pim.PeakFlops, conv.PeakFlops)
		}
	}
}

func TestRooflineComputeTime(t *testing.T) {
	m := MustBuild(Conventional, roadmap(), 2002)
	// Pure compute: time = flops / (sustained * peak).
	tCompute := m.ComputeTime(1e9, 0)
	want := 1e9 / (m.Sustained * m.PeakFlops)
	if math.Abs(float64(tCompute)-want) > 1e-15 {
		t.Errorf("compute-bound time = %v, want %g", tCompute, want)
	}
	// Pure memory: time = bytes / bandwidth.
	tMem := m.ComputeTime(0, 1e9)
	wantM := 1e9 / m.MemBandwidth
	if math.Abs(float64(tMem)-wantM) > 1e-15 {
		t.Errorf("memory-bound time = %v, want %g", tMem, wantM)
	}
}

func TestRooflinePIMSpeedsUpMemoryBoundOnly(t *testing.T) {
	r := roadmap()
	conv := MustBuild(Conventional, r, 2006)
	pim := MustBuild(PIM, r, 2006)
	// Memory-bound phase: PIM much faster.
	memBound := func(m Model) float64 { return float64(m.ComputeTime(1e6, 1e9)) }
	if memBound(pim) >= memBound(conv)/2 {
		t.Errorf("PIM memory-bound time %g, conventional %g; want >= 2x speedup",
			memBound(pim), memBound(conv))
	}
	// Compute-bound phase: PIM no faster.
	cpuBound := func(m Model) float64 { return float64(m.ComputeTime(1e12, 1e3)) }
	if cpuBound(pim) < cpuBound(conv) {
		t.Errorf("PIM compute-bound time %g beat conventional %g; it should not",
			cpuBound(pim), cpuBound(conv))
	}
}

func TestComputeTimeNegativePanics(t *testing.T) {
	m := MustBuild(Conventional, roadmap(), 2002)
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	m.ComputeTime(-1, 0)
}

// Property: for every architecture, growing the year grows peak flops
// and never breaks the invariant peak > 0, and roofline time is
// monotonic in both arguments.
func TestModelMonotonicityProperty(t *testing.T) {
	r := roadmap()
	prop := func(rawYear, rawF, rawB uint16) bool {
		year := 2002 + float64(rawYear%10)
		for _, a := range Arches() {
			m1 := MustBuild(a, r, year)
			m2 := MustBuild(a, r, year+1)
			if m2.PeakFlops <= m1.PeakFlops {
				return false
			}
			f := float64(rawF) * 1e6
			b := float64(rawB) * 1e3
			if m1.ComputeTime(f+1e6, b) < m1.ComputeTime(f, b) {
				return false
			}
			if m1.ComputeTime(f, b+1e6) < m1.ComputeTime(f, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringMentionsArch(t *testing.T) {
	m := MustBuild(Blade, roadmap(), 2004)
	s := m.String()
	if len(s) == 0 || s[:5] != "blade" {
		t.Errorf("String() = %q, want blade prefix", s)
	}
}
