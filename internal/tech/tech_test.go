package tech

import (
	"math"
	"testing"
)

func TestCurveAtBaseYear(t *testing.T) {
	c := Curve{Key: PeakFlopsPerSocket, BaseYear: 2002, Base: 4.8e9, CAGR: 0.41}
	if got := c.At(2002); got != 4.8e9 {
		t.Fatalf("At(base year) = %g, want base", got)
	}
}

func TestCurveGrowth(t *testing.T) {
	c := Curve{Key: "x", BaseYear: 2000, Base: 100, CAGR: 1.0} // doubles yearly
	if got := c.At(2003); math.Abs(got-800) > 1e-9 {
		t.Fatalf("At(2003) = %g, want 800", got)
	}
	if got := c.At(1999); math.Abs(got-50) > 1e-9 {
		t.Fatalf("At(1999) = %g, want 50 (backwards projection)", got)
	}
}

func TestCurveDecline(t *testing.T) {
	c := Curve{Key: LinkLatency, BaseYear: 2002, Base: 50e-6, CAGR: -0.5}
	if got := c.At(2004); math.Abs(got-12.5e-6) > 1e-12 {
		t.Fatalf("declining curve At(2004) = %g, want 12.5e-6", got)
	}
}

func TestCurveValidate(t *testing.T) {
	bad := []Curve{
		{Key: "", Base: 1, BaseYear: 2002},
		{Key: "x", Base: 0, BaseYear: 2002},
		{Key: "x", Base: 1, CAGR: -1.5, BaseYear: 2002},
		{Key: "x", Base: 1, BaseYear: 1600},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, c)
		}
	}
	good := Curve{Key: "x", Base: 1, BaseYear: 2002, CAGR: -0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
}

func TestDefault2002Sanity(t *testing.T) {
	r := Default2002()
	// Every documented key present, positive at 2002 and at 2010.
	keys := []Key{PeakFlopsPerSocket, FlopsPerDollar, DRAMBytesPerDollar,
		MemBandwidthPerSocket, WattsPerSocket, DiskBytesPerDollar,
		LinkBandwidth, LinkLatency, CoresPerSocket}
	for _, k := range keys {
		if v := r.At(k, 2002); v <= 0 {
			t.Errorf("%s at 2002 = %g", k, v)
		}
		if v := r.At(k, 2010); v <= 0 {
			t.Errorf("%s at 2010 = %g", k, v)
		}
	}
	// The memory wall: flops grow faster than memory bandwidth.
	fc, _ := r.Curve(PeakFlopsPerSocket)
	mc, _ := r.Curve(MemBandwidthPerSocket)
	if fc.CAGR <= mc.CAGR {
		t.Errorf("memory wall inverted: flops CAGR %g <= mem-bw CAGR %g", fc.CAGR, mc.CAGR)
	}
	// Latency declines.
	lc, _ := r.Curve(LinkLatency)
	if lc.CAGR >= 0 {
		t.Errorf("link latency should decline, CAGR = %g", lc.CAGR)
	}
	// Moore's-law band: flops/$ doubles every 1.3–2.2 years.
	fd, _ := r.Curve(FlopsPerDollar)
	if d := math.Ln2 / math.Log(1+fd.CAGR); d < 1.3 || d > 2.2 {
		t.Errorf("flops/$ doubling %g years, outside Moore band", d)
	}
}

func TestRoadmapUnknownKeyPanics(t *testing.T) {
	r := Default2002()
	defer func() {
		if recover() == nil {
			t.Error("unknown key did not panic")
		}
	}()
	r.At("no-such-key", 2002)
}

func TestEngineering(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{4.8e9, "flop/s", "4.8 Gflop/s"},
		{1e15, "flop/s", "1 Pflop/s"},
		{0, "W", "0 W"},
		{250, "W", "250 W"},
		{50e-6, "s", "50 µs"},
		{-3.2e9, "B/s", "-3.2 GB/s"},
	}
	for _, c := range cases {
		if got := Engineering(c.v, c.unit); got != c.want {
			t.Errorf("Engineering(%g, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestDollars(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{2500, "$2.5k"},
		{1e6, "$1M"},
		{2.0e10, "$20B"},
		{75, "$75"},
	}
	for _, c := range cases {
		if got := Dollars(c.v); got != c.want {
			t.Errorf("Dollars(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCurveBreakPoint(t *testing.T) {
	c := Curve{Key: "x", BaseYear: 2000, Base: 100, CAGR: 1.0, BreakYear: 2002, CAGR2: 0}
	if got := c.At(2002); math.Abs(got-400) > 1e-9 {
		t.Fatalf("At(break) = %g, want 400", got)
	}
	if got := c.At(2005); math.Abs(got-400) > 1e-9 {
		t.Fatalf("At(after flat break) = %g, want 400", got)
	}
	c.CAGR2 = 1.0 // no regime change: continuous doubling
	if got := c.At(2004); math.Abs(got-1600) > 1e-9 {
		t.Fatalf("continuous break At(2004) = %g, want 1600", got)
	}
}

func TestCurveBreakValidation(t *testing.T) {
	bad := Curve{Key: "x", BaseYear: 2005, Base: 1, CAGR: 0.5, BreakYear: 2000}
	if err := bad.Validate(); err == nil {
		t.Error("break before base accepted")
	}
	bad2 := Curve{Key: "x", BaseYear: 2000, Base: 1, CAGR: 0.5, BreakYear: 2005, CAGR2: -2}
	if err := bad2.Validate(); err == nil {
		t.Error("CAGR2 <= -1 accepted")
	}
}

func TestPowerWall2005(t *testing.T) {
	def := Default2002()
	pw := PowerWall2005()
	// Identical through 2005.
	if def.At(PeakFlopsPerSocket, 2004) != pw.At(PeakFlopsPerSocket, 2004) {
		t.Error("power wall altered pre-2005 flops")
	}
	// Far slower by 2010.
	if pw.At(PeakFlopsPerSocket, 2010) > 0.5*def.At(PeakFlopsPerSocket, 2010) {
		t.Error("power wall did not slow per-socket flops")
	}
	// Power flat after 2005.
	if pw.At(WattsPerSocket, 2010) != pw.At(WattsPerSocket, 2005) {
		t.Error("socket power not flat after the wall")
	}
}
