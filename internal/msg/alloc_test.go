//go:build !race

package msg

import (
	"testing"

	"northstar/internal/machine"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/tech"
)

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestPingPongAllocsIndependentOfLength: on an already-built machine, a
// two-rank ping-pong makes as many allocations for 10,000 round trips as
// for 1,000 — the per-run set-up and nothing per message — at eager and
// rendezvous sizes on LogGP and packet-level machines.
func TestPingPongAllocsIndependentOfLength(t *testing.T) {
	n2002 := node.MustBuild(node.Conventional, tech.Default2002(), 2002)
	for _, c := range []struct {
		name string
		cfg  machine.Config
	}{
		{"loggp", machine.Config{Nodes: 2, Node: n2002, Fabric: network.Myrinet2000(), Seed: 1}},
		{"packet", machine.Config{Nodes: 2, Node: n2002, Fabric: network.Myrinet2000(), PacketLevel: true, Seed: 1}},
	} {
		m, err := machine.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bytes := range []int64{1 << 10, 64 << 10} {
			allocs := func(trips int) float64 {
				return testing.AllocsPerRun(1, func() {
					m.Reset()
					_, err := Run(m, Options{}, func(r *Rank) {
						peer := 1 - r.ID()
						for i := 0; i < trips; i++ {
							if r.ID() == 0 {
								r.Send(peer, 0, bytes)
								r.Recv(peer, 0)
							} else {
								r.Recv(peer, 0)
								r.Send(peer, 0, bytes)
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			if long, short := allocs(10000), allocs(1000); long != short {
				t.Errorf("%s, %d bytes: %v allocations for 10,000 round trips, %v for 1,000", c.name, bytes, long, short)
			}
		}
	}
}
