package network

import (
	"fmt"

	"northstar/internal/sim"
)

// LogGP is the analytic fabric model. A message of k bytes from src to
// dst costs:
//
//	sender CPU:  o                       (then the proc may continue)
//	NIC egress:  occupancy = max(g, k·G) (serialized per source NIC)
//	wire:        L
//	NIC ingress: serialized per destination NIC
//	receiver CPU: o
//
// The switch core is assumed non-blocking (contention exists only at
// endpoints), which matches a full-bisection fabric under moderate load.
// Cross-validated against PacketNet in the contention-free regime (see
// tests).
type LogGP struct {
	k           *sim.Kernel
	p           Preset
	n           int
	probe       Probe
	egressFree  []sim.Time
	ingressFree []sim.Time
}

// NewLogGP returns a LogGP fabric with n endpoints.
func NewLogGP(k *sim.Kernel, p Preset, n int) *LogGP {
	if n <= 0 {
		panic("network: fabric needs at least one endpoint")
	}
	f := &LogGP{k: k, p: p, n: n, egressFree: make([]sim.Time, n), ingressFree: make([]sim.Time, n)}
	probe, _ := k.Probe().(Probe)
	f.SetProbe(probe)
	return f
}

// SetProbe attaches p (nil detaches); the fabric registers its egress
// NIC count with the probe. Attaching a probe never perturbs delivery
// times — probes observe the fabric, they do not participate in it.
func (f *LogGP) SetProbe(p Probe) {
	f.probe = p
	if p != nil {
		p.FabricBuilt(KindLogGP, f.n)
	}
}

// Name implements Fabric.
func (f *LogGP) Name() string { return f.p.Name + "/loggp" }

// Kernel implements Fabric.
func (f *LogGP) Kernel() *sim.Kernel { return f.k }

// NumEndpoints implements Fabric.
func (f *LogGP) NumEndpoints() int { return f.n }

// Preset returns the fabric's parameters.
func (f *LogGP) Preset() Preset { return f.p }

// Send implements Fabric.
func (f *LogGP) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	f.check(src, dst, bytes)
	now := f.k.Now()

	occ := f.p.Gap
	if bt := sim.Time(bytes) * f.p.ByteTime; bt > occ {
		occ = bt
	}
	start := now + f.p.Overhead
	if f.egressFree[src] > start {
		start = f.egressFree[src]
	}
	f.egressFree[src] = start + occ
	if onInjected != nil {
		f.k.At(start+occ, onInjected)
	}

	arrive := start + occ + f.p.Latency
	if f.ingressFree[dst] > arrive {
		arrive = f.ingressFree[dst]
	}
	f.ingressFree[dst] = arrive
	if onDelivered != nil {
		f.k.At(arrive+f.p.Overhead, onDelivered)
	}
	if f.probe != nil {
		f.probe.MessageInjected(KindLogGP, bytes, 1)
		f.probe.LinkBusy(KindLogGP, occ)
		f.probe.MessageDelivered(KindLogGP, bytes, arrive+f.p.Overhead-now)
	}
}

// Reset implements Fabric: all NICs idle.
func (f *LogGP) Reset() {
	for i := range f.egressFree {
		f.egressFree[i] = 0
		f.ingressFree[i] = 0
	}
}

// MessageTime returns the analytic uncontended end-to-end time for one
// message of the given size: 2o + max(g, k·G) + L. Useful as a closed-
// form reference in tests and reports.
func (f *LogGP) MessageTime(bytes int64) sim.Time {
	occ := f.p.Gap
	if bt := sim.Time(bytes) * f.p.ByteTime; bt > occ {
		occ = bt
	}
	return 2*f.p.Overhead + occ + f.p.Latency
}

func (f *LogGP) check(src, dst int, bytes int64) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, f.n))
	}
	if bytes < 0 {
		panic("network: negative message size")
	}
	if src == dst {
		panic("network: self-send must be handled above the fabric")
	}
}
