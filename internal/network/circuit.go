package network

import (
	"fmt"

	"northstar/internal/sim"
)

// Circuit models an optical circuit switch. Data moves on dedicated
// lightpaths: before endpoint src can transmit to dst, a circuit
// src→dst must be configured, costing CircuitSetup if src's outbound
// circuit currently points elsewhere (MEMS mirror settling, milliseconds
// in 2002-era hardware). Once up, the path runs at full optical
// bandwidth with no packet framing and no switch-queueing. One circuit
// per source and per destination at a time; conflicting transfers
// serialize.
//
// The model captures the economics the keynote gestures at: optical
// switching loses badly on small scattered messages (every new pairing
// pays the setup) and wins on large or repeated bulk transfers.
type Circuit struct {
	Counters
	k     *sim.Kernel
	p     Preset
	n     int
	probe Probe
	// lastDst[src] is the endpoint src's circuit currently targets
	// (-1 = none).
	lastDst []int
	// egressFree/ingressFree serialize each endpoint's lightpath.
	egressFree  []sim.Time
	ingressFree []sim.Time
	// Reconfigs counts circuit setups performed.
	Reconfigs int64
}

// NewCircuit returns a circuit-switched fabric with n endpoints.
func NewCircuit(k *sim.Kernel, p Preset, n int) *Circuit {
	if n <= 0 {
		panic("network: fabric needs at least one endpoint")
	}
	c := &Circuit{k: k, p: p, n: n,
		lastDst:     make([]int, n),
		egressFree:  make([]sim.Time, n),
		ingressFree: make([]sim.Time, n),
	}
	for i := range c.lastDst {
		c.lastDst[i] = -1
	}
	probe, _ := k.Probe().(Probe)
	c.SetProbe(probe)
	return c
}

// SetProbe attaches p (nil detaches); the fabric registers one lightpath
// per source endpoint with the probe. Probes observe, never perturb.
func (c *Circuit) SetProbe(p Probe) {
	c.probe = p
	if p != nil {
		p.FabricBuilt(KindCircuit, c.n)
	}
}

// Name implements Fabric.
func (c *Circuit) Name() string { return c.p.Name + "/circuit" }

// Kernel implements Fabric.
func (c *Circuit) Kernel() *sim.Kernel { return c.k }

// NumEndpoints implements Fabric.
func (c *Circuit) NumEndpoints() int { return c.n }

// Preset returns the fabric's parameters.
func (c *Circuit) Preset() Preset { return c.p }

// Reset implements Fabric: all circuits torn down, lightpaths idle,
// counters zeroed.
func (c *Circuit) Reset() {
	c.Counters.reset()
	c.Reconfigs = 0
	for i := range c.lastDst {
		c.lastDst[i] = -1
		c.egressFree[i] = 0
		c.ingressFree[i] = 0
	}
}

// Send implements Fabric.
func (c *Circuit) Send(src, dst int, bytes int64, onInjected, onDelivered func()) {
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		panic(fmt.Sprintf("network: endpoint out of range: %d->%d of %d", src, dst, c.n))
	}
	if bytes < 0 {
		panic("network: negative message size")
	}
	if src == dst {
		panic("network: self-send must be handled above the fabric")
	}
	c.count(bytes)

	now := c.k.Now()
	start := now + c.p.Overhead
	if c.egressFree[src] > start {
		start = c.egressFree[src]
	}
	if c.ingressFree[dst] > start {
		start = c.ingressFree[dst]
	}
	pathStart := start
	if c.lastDst[src] != dst {
		start += c.p.CircuitSetup
		c.Reconfigs++
		c.lastDst[src] = dst
	}
	tx := sim.Time(bytes) * c.p.ByteTime
	if tx < c.p.Gap {
		tx = c.p.Gap
	}
	end := start + tx
	c.egressFree[src] = end
	c.ingressFree[dst] = end
	if onInjected != nil {
		c.k.At(end, onInjected)
	}
	if onDelivered != nil {
		c.k.At(end+c.p.Latency+c.p.Overhead, onDelivered)
	}
	if c.probe != nil {
		c.probe.MessageInjected(KindCircuit, bytes, 1)
		// A reconfiguration holds the lightpath for the MEMS settling
		// time too, so busy time includes the setup when one was paid.
		c.probe.LinkBusy(KindCircuit, end-pathStart)
		c.probe.MessageDelivered(KindCircuit, bytes, end+c.p.Latency+c.p.Overhead-now)
	}
}
