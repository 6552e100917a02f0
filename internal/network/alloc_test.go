//go:build !race

package network

import (
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestWormholeSendAllocsIndependentOfLength: on an already-built
// wormhole fabric, four concurrent send chains make as many allocations
// for 10,000 messages as for 1,000 — packets, messages and per-link
// queues are reused, and no event allocates a closure.
func TestWormholeSendAllocsIndependentOfLength(t *testing.T) {
	k := sim.New(1)
	f := NewWormholeNet(k, Myrinet2000(), topology.FatTree(4, 2), 2)
	injected := 0
	onInjected := func() { injected++ }
	allocs := func(msgs int) float64 {
		return testing.AllocsPerRun(1, func() {
			k.Reset()
			f.Reset()
			sent := 0
			var send func()
			send = func() {
				if sent >= msgs {
					return
				}
				src := sent * 5 % 16
				dst := (src + 1 + sent%15) % 16
				f.Send(src, dst, int64(sent%4)*6000, onInjected, send)
				sent++
			}
			for i := 0; i < 4; i++ {
				k.After(0, send)
			}
			k.Run()
		})
	}
	if long, short := allocs(10000), allocs(1000); long != short {
		t.Errorf("%v allocations for 10,000 wormhole sends, %v for 1,000", long, short)
	}
}
