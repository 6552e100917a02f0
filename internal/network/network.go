// Package network simulates cluster interconnect fabrics — the
// "anticipated advances in networking including Infiniband and optical
// switching" of the keynote. It provides three fabric models behind one
// interface:
//
//   - LogGP: the analytic LogGP model (Latency, overhead, gap, Gap-per-
//     byte) with endpoint serialization. O(1) work per message; the
//     workhorse for large parameter sweeps. Assumes a non-blocking core.
//   - PacketNet: a packet-level store-and-forward simulation over an
//     explicit topology.Graph, modeling per-link contention hop by hop.
//     Used where congestion matters (alltoall, bisection-limited runs).
//   - Circuit: an optical circuit switch — reconfiguration cost per
//     connection change, then very high bandwidth. Captures the
//     batch-transfer economics of MEMS/optical switching.
//
// All models charge per-message CPU overhead (o) at both ends and
// serialize each endpoint's NIC, because the claims under test (E5–E7)
// are precisely about where latency, overhead, bandwidth, and switching
// mode dominate.
package network

import (
	"fmt"

	"northstar/internal/sim"
)

// Fabric is a message transport between numbered endpoints in virtual
// time. Implementations must be deterministic.
type Fabric interface {
	// Name identifies the fabric (for reports).
	Name() string
	// Kernel returns the simulation kernel this fabric schedules on.
	Kernel() *sim.Kernel
	// NumEndpoints returns the number of attached endpoints.
	NumEndpoints() int
	// Send transfers bytes from endpoint src to endpoint dst.
	// onInjected fires when the sender's NIC is free for the next message
	// (local completion); onDelivered fires when the last byte arrives at
	// dst. Either callback may be nil. Each non-nil callback is called
	// exactly once, from an event handler, and the two may fire in
	// either order: callers such as the messaging layer recycle the
	// record a pair of callbacks is bound to once both have fired.
	// bytes must be >= 0; a 0-byte message still pays latency and
	// overhead (it models a header-only control message).
	Send(src, dst int, bytes int64, onInjected, onDelivered func())
	// Reset returns the fabric to its just-built state (idle links,
	// zeroed counters) so a machine can be reused across runs instead of
	// rebuilt. Call it only when the fabric is quiescent — after the
	// kernel has drained (no sends in flight).
	Reset()
}

// reset zeroes the embedded traffic counters.
func (c *Counters) reset() { *c = Counters{} }

// Counters tracks fabric traffic; every built-in fabric embeds one.
type Counters struct {
	Messages int64
	Bytes    int64
}

func (c *Counters) count(bytes int64) {
	c.Messages++
	c.Bytes += bytes
}

// Preset is a named parameterization of a fabric: the user-level LogGP
// constants plus the packet/circuit parameters derived from the same
// hardware. Values for the built-in presets are drawn from published
// 2002-era user-level (not wire-level) measurements.
type Preset struct {
	Name string
	// Latency is the end-to-end wire+switch latency L for a minimal
	// message, excluding software overhead.
	Latency sim.Time
	// Overhead is the per-message CPU cost o paid at each end.
	Overhead sim.Time
	// Gap is the minimum inter-message gap g at one NIC (message rate
	// limit).
	Gap sim.Time
	// ByteTime is G, seconds per byte (1/bandwidth).
	ByteTime sim.Time
	// PerHopDelay is the per-switch fall-through delay used by PacketNet.
	PerHopDelay sim.Time
	// MTU is the packet payload size used by PacketNet.
	MTU int
	// CircuitSetup, when nonzero, marks an optical circuit fabric with
	// this reconfiguration time.
	CircuitSetup sim.Time
}

// Bandwidth returns the asymptotic bandwidth in bytes/s.
func (p Preset) Bandwidth() float64 { return 1 / float64(p.ByteTime) }

// Validate checks preset parameters.
func (p Preset) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("network: preset with empty name")
	}
	if p.Latency < 0 || p.Overhead < 0 || p.Gap < 0 || p.PerHopDelay < 0 || p.CircuitSetup < 0 {
		return fmt.Errorf("network: preset %s has negative timing", p.Name)
	}
	if p.ByteTime <= 0 {
		return fmt.Errorf("network: preset %s needs positive ByteTime", p.Name)
	}
	if p.MTU <= 0 {
		return fmt.Errorf("network: preset %s needs positive MTU", p.Name)
	}
	return nil
}

// String summarizes the preset.
func (p Preset) String() string {
	return fmt.Sprintf("%s: L=%v o=%v g=%v BW=%.3g MB/s", p.Name, p.Latency, p.Overhead, p.Gap, p.Bandwidth()/1e6)
}

// The 2002-era fabric presets. Latencies are user-level small-message
// half-round-trip figures from the contemporaneous literature; bandwidths
// are sustained user-level, not signaling rate.

// FastEthernet is 100 Mb/s Ethernet with a kernel TCP/IP stack — the
// original Beowulf fabric.
func FastEthernet() Preset {
	return Preset{
		Name:        "fast-ethernet",
		Latency:     60 * sim.Microsecond,
		Overhead:    15 * sim.Microsecond,
		Gap:         10 * sim.Microsecond,
		ByteTime:    sim.Time(1 / 11.5e6), // ~11.5 MB/s sustained
		PerHopDelay: 10 * sim.Microsecond,
		MTU:         1500,
	}
}

// GigabitEthernet is 1 Gb/s Ethernet with TCP/IP.
func GigabitEthernet() Preset {
	return Preset{
		Name:        "gigabit-ethernet",
		Latency:     40 * sim.Microsecond,
		Overhead:    10 * sim.Microsecond,
		Gap:         5 * sim.Microsecond,
		ByteTime:    sim.Time(1 / 110e6), // ~110 MB/s sustained
		PerHopDelay: 5 * sim.Microsecond,
		MTU:         1500,
	}
}

// Myrinet2000 is Myricom's 2 Gb/s fabric with the user-level GM layer.
func Myrinet2000() Preset {
	return Preset{
		Name:        "myrinet-2000",
		Latency:     6.5 * sim.Microsecond,
		Overhead:    1 * sim.Microsecond,
		Gap:         0.5 * sim.Microsecond,
		ByteTime:    sim.Time(1 / 245e6),
		PerHopDelay: 0.5 * sim.Microsecond,
		MTU:         4096,
	}
}

// QsNet is the Quadrics Elan3 fabric — the low-latency champion of 2002.
func QsNet() Preset {
	return Preset{
		Name:        "qsnet-elan3",
		Latency:     2.5 * sim.Microsecond,
		Overhead:    0.6 * sim.Microsecond,
		Gap:         0.3 * sim.Microsecond,
		ByteTime:    sim.Time(1 / 320e6),
		PerHopDelay: 0.3 * sim.Microsecond,
		MTU:         4096,
	}
}

// InfiniBand4X is first-generation 4X InfiniBand (10 Gb/s signaling,
// ~800 MB/s user payload).
func InfiniBand4X() Preset {
	return Preset{
		Name:        "infiniband-4x",
		Latency:     5 * sim.Microsecond,
		Overhead:    0.8 * sim.Microsecond,
		Gap:         0.3 * sim.Microsecond,
		ByteTime:    sim.Time(1 / 800e6),
		PerHopDelay: 0.2 * sim.Microsecond,
		MTU:         2048,
	}
}

// OpticalCircuit is a MEMS optical circuit switch: milliseconds to
// reconfigure, then an uncontended 2.5 GB/s lightpath.
func OpticalCircuit() Preset {
	return Preset{
		Name:         "optical-circuit",
		Latency:      1 * sim.Microsecond,
		Overhead:     0.8 * sim.Microsecond,
		Gap:          0.3 * sim.Microsecond,
		ByteTime:     sim.Time(1 / 2.5e9),
		PerHopDelay:  0,
		MTU:          1 << 20,
		CircuitSetup: 1 * sim.Millisecond,
	}
}

// Presets returns all built-in presets in ascending-capability order.
func Presets() []Preset {
	return []Preset{FastEthernet(), GigabitEthernet(), Myrinet2000(), QsNet(), InfiniBand4X(), OpticalCircuit()}
}

// PresetByName returns the built-in preset with the given name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("network: unknown preset %q", name)
}
