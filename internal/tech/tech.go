// Package tech models device-technology trajectories: the "performance,
// capacity, power, size, and cost curves" the keynote projects for future
// commodity clusters. A Roadmap is a set of named exponential curves
// anchored at a calibration year (2002 by default, with anchors taken
// from the contemporaneous public record: Pentium 4 Xeon class nodes,
// DDR SDRAM pricing, commodity disk and Ethernet economics).
//
// Everything downstream — node architecture models, cluster configuration
// metrics, and the trans-Petaflops trajectory explorer — evaluates these
// curves rather than hard-coding year-specific numbers, so a scenario can
// bend a curve (faster DRAM, stalled frequency) and watch the system-level
// consequences.
package tech

import (
	"fmt"
	"math"
)

// Key names a technology quantity tracked by a Roadmap. All values are in
// SI base units (flops, bytes, bits/s, watts, dollars) to keep unit
// algebra honest; formatting helpers render engineering units.
type Key string

// The quantities a default roadmap tracks.
const (
	// PeakFlopsPerSocket is the peak double-precision flop rate of one
	// commodity processor socket.
	PeakFlopsPerSocket Key = "peak-flops-per-socket"
	// FlopsPerDollar is peak flops bought per dollar of node hardware.
	FlopsPerDollar Key = "flops-per-dollar"
	// DRAMBytesPerDollar is main-memory capacity per dollar.
	DRAMBytesPerDollar Key = "dram-bytes-per-dollar"
	// MemBandwidthPerSocket is sustained memory bandwidth per socket,
	// bytes/s. It grows far slower than flops — the memory wall that
	// motivates processor-in-memory architectures.
	MemBandwidthPerSocket Key = "mem-bandwidth-per-socket"
	// WattsPerSocket is the socket's power draw under load.
	WattsPerSocket Key = "watts-per-socket"
	// DiskBytesPerDollar is rotating-storage capacity per dollar.
	DiskBytesPerDollar Key = "disk-bytes-per-dollar"
	// LinkBandwidth is the bandwidth of a commodity cluster fabric link,
	// bits/s.
	LinkBandwidth Key = "link-bandwidth"
	// LinkLatency is user-level end-to-end small-message latency of a
	// commodity fabric, seconds (a declining curve).
	LinkLatency Key = "link-latency"
	// CoresPerSocket is the number of processor cores per socket — 1 in
	// 2002, rising as "SMP on a chip" arrives.
	CoresPerSocket Key = "cores-per-socket"
)

// Curve is an exponential projection v(year) = Base · (1+CAGR)^(year-BaseYear).
// A negative CAGR models quantities that improve by shrinking (latency,
// $/flop when expressed directly). An optional break point models regime
// changes — the frequency/power walls of the mid-decade: after BreakYear
// the curve continues at CAGR2 instead.
type Curve struct {
	Key      Key
	Unit     string
	BaseYear float64
	Base     float64
	CAGR     float64
	// BreakYear, when nonzero, switches growth to CAGR2 from that year
	// on. BreakYear must not precede BaseYear.
	BreakYear float64
	CAGR2     float64
	Comment   string
}

// At evaluates the curve at the given (possibly fractional) year.
func (c Curve) At(year float64) float64 {
	if c.BreakYear > 0 && year > c.BreakYear {
		atBreak := c.Base * math.Pow(1+c.CAGR, c.BreakYear-c.BaseYear)
		return atBreak * math.Pow(1+c.CAGR2, year-c.BreakYear)
	}
	return c.Base * math.Pow(1+c.CAGR, year-c.BaseYear)
}

// Validate checks curve parameters.
func (c Curve) Validate() error {
	if c.Key == "" {
		return fmt.Errorf("tech: curve with empty key")
	}
	if c.Base <= 0 {
		return fmt.Errorf("tech: curve %s base %g must be positive", c.Key, c.Base)
	}
	if c.CAGR <= -1 {
		return fmt.Errorf("tech: curve %s CAGR %g must exceed -1", c.Key, c.CAGR)
	}
	if c.BaseYear < 1900 || c.BaseYear > 2200 {
		return fmt.Errorf("tech: curve %s base year %g out of range", c.Key, c.BaseYear)
	}
	if c.BreakYear != 0 {
		if c.BreakYear < c.BaseYear {
			return fmt.Errorf("tech: curve %s break year %g precedes base year %g", c.Key, c.BreakYear, c.BaseYear)
		}
		if c.CAGR2 <= -1 {
			return fmt.Errorf("tech: curve %s CAGR2 %g must exceed -1", c.Key, c.CAGR2)
		}
	}
	return nil
}

// Roadmap is a named set of technology curves.
type Roadmap struct {
	Name   string
	curves map[Key]Curve
}

// NewRoadmap returns an empty roadmap.
func NewRoadmap(name string) *Roadmap {
	return &Roadmap{Name: name, curves: make(map[Key]Curve)}
}

// Set adds or replaces a curve. Invalid curves panic: roadmaps are built
// from literals at startup and a bad literal is a programming error.
func (r *Roadmap) Set(c Curve) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	r.curves[c.Key] = c
}

// Curve returns the curve for k.
func (r *Roadmap) Curve(k Key) (Curve, bool) {
	c, ok := r.curves[k]
	return c, ok
}

// At evaluates curve k at year. Unknown keys panic — a typo'd key would
// otherwise silently produce zeros that corrupt every downstream metric.
func (r *Roadmap) At(k Key, year float64) float64 {
	c, ok := r.curves[k]
	if !ok {
		panic(fmt.Sprintf("tech: roadmap %q has no curve %q", r.Name, k))
	}
	return c.At(year)
}

// Default2002 returns the calibration roadmap anchored at 2002. Anchors
// model a dual-socket Pentium 4 Xeon 2.4 GHz Beowulf node; growth rates
// are the decade-scale CAGRs the keynote's projections rely on.
func Default2002() *Roadmap {
	r := NewRoadmap("default-2002")
	r.Set(Curve{Key: PeakFlopsPerSocket, Unit: "flop/s", BaseYear: 2002, Base: 4.8e9, CAGR: 0.41,
		Comment: "2.4 GHz x 2 flops/cycle SSE2; ~doubles every 2 years"})
	r.Set(Curve{Key: FlopsPerDollar, Unit: "flop/s/$", BaseYear: 2002, Base: 3.8e6, CAGR: 0.52,
		Comment: "$2500 dual-socket node at 9.6 GF peak; doubles every ~20 months"})
	r.Set(Curve{Key: DRAMBytesPerDollar, Unit: "B/$", BaseYear: 2002, Base: 4.0e6, CAGR: 0.42,
		Comment: "DDR SDRAM at ~$250/GB in 2002"})
	r.Set(Curve{Key: MemBandwidthPerSocket, Unit: "B/s", BaseYear: 2002, Base: 3.2e9, CAGR: 0.26,
		Comment: "dual-channel PC2100; the memory wall: grows slower than flops"})
	r.Set(Curve{Key: WattsPerSocket, Unit: "W", BaseYear: 2002, Base: 65, CAGR: 0.06,
		Comment: "TDP creep until the power wall forces flat envelopes"})
	r.Set(Curve{Key: DiskBytesPerDollar, Unit: "B/$", BaseYear: 2002, Base: 1.0e9, CAGR: 0.55,
		Comment: "$1/GB commodity IDE in 2002"})
	r.Set(Curve{Key: LinkBandwidth, Unit: "bit/s", BaseYear: 2002, Base: 1.0e9, CAGR: 0.38,
		Comment: "Gigabit Ethernet commodity; x10 roughly every 7 years"})
	r.Set(Curve{Key: LinkLatency, Unit: "s", BaseYear: 2002, Base: 50e-6, CAGR: -0.18,
		Comment: "user-level small-message latency over the commodity fabric"})
	r.Set(Curve{Key: CoresPerSocket, Unit: "cores", BaseYear: 2002, Base: 1, CAGR: 0,
		Comment: "single-core in 2002; the CMP scenario overrides this"})
	return r
}

// PowerWall2005 returns the default roadmap with the frequency/power
// wall applied: from 2005 on, single-thread (per-core) flops growth
// slows to 8%/year and socket power flattens — the regime change that
// actually arrived mid-decade and made "SMP on a chip" the only path
// forward. Use it as the pessimistic counterpart to Default2002 in
// sensitivity studies (experiment X3).
func PowerWall2005() *Roadmap {
	r := Default2002()
	r.Name = "power-wall-2005"
	c, _ := r.Curve(PeakFlopsPerSocket)
	c.BreakYear = 2005
	c.CAGR2 = 0.08
	c.Comment = "frequency wall: per-socket scalar flops nearly stall after 2005"
	r.Set(c)
	w, _ := r.Curve(WattsPerSocket)
	w.BreakYear = 2005
	w.CAGR2 = 0
	w.Comment = "power wall: socket TDP flattens after 2005"
	r.Set(w)
	return r
}
