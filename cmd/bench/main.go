// Command bench is the probe-overhead guard. It times a packet-level send
// chain on an 8×8 Myrinet torus with a nil probe and with an attached
// obs.DomainProbe, prints host nanoseconds per send for both, and exits 1
// if the attached probe costs more than 10% per send. The two sides run
// round by round, seven rounds, alternating which side goes first, and
// each side keeps its fastest run, so a slow phase of the host lands on
// both sides instead of deciding the verdict:
//
//	go run ./cmd/bench
//
// It holds the "observability is free when off and cheap when on" claim
// on every push. Everything else about performance is measured by the
// benchmark module in benchmark/ (see BENCHMARK.json and
// benchmark/README.md), which reports the same pair as
// rung.fabric_send.packet and rung.fabric_send.packet_probed but
// enforces no budget.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"northstar/internal/network"
	"northstar/internal/obs"
	"northstar/internal/sim"
	"northstar/internal/topology"
)

const (
	side      = 8       // torus side: 64 endpoints, multi-hop routes
	sends     = 400_000 // sends per timed run
	rounds    = 7       // runs per side; the fastest is the least perturbed by the host
	budgetPct = 10      // overhead the attached probe may add per send
)

func main() {
	sides := [2]func() network.Probe{
		func() network.Probe { return nil },
		func() network.Probe { return obs.NewDomainProbe() },
	}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for r := 0; r < rounds; r++ {
		for i := range sides {
			s := (r + i) % 2 // round r starts with side r%2
			best[s] = math.Min(best[s], sendChain(sides[s]()))
		}
	}
	nilNs, probedNs := best[0], best[1]
	pct := (probedNs - nilNs) / nilNs * 100
	fmt.Printf("fabric send: %.1f ns/send nil probe, %.1f ns/send domain probe (%+.1f%%)\n",
		nilNs, probedNs, pct)
	if pct > budgetPct {
		fmt.Fprintf(os.Stderr, "bench: the attached domain probe exceeds the %d%% overhead budget\n", budgetPct)
		os.Exit(1)
	}
}

// sendChain drives the fabric with a self-rechaining send loop: each
// delivery issues the next 2-5 packet message between a random pair of
// distinct endpoints. It returns host nanoseconds per send.
func sendChain(probe network.Probe) float64 {
	k := sim.New(1)
	f := network.NewPacketNet(k, network.Myrinet2000(), topology.Torus2D(side, side))
	f.SetProbe(probe)
	const endpoints = side * side
	mtu := int64(network.Myrinet2000().MTU)
	rng := rand.New(rand.NewSource(7))
	n := 0
	var send func()
	send = func() {
		if n >= sends {
			return
		}
		n++
		src := rng.Intn(endpoints)
		dst := rng.Intn(endpoints - 1)
		if dst >= src {
			dst++
		}
		f.Send(src, dst, mtu*2+rng.Int63n(mtu*3), nil, send)
	}
	k.After(0, send)

	runtime.GC() // start every run from a settled heap
	start := time.Now()
	k.Run()
	ns := float64(time.Since(start).Nanoseconds()) / sends

	// A probe that saw nothing was not attached, and would pass for free.
	if dp, ok := probe.(*obs.DomainProbe); ok && dp.Messages(network.KindPacket) != sends {
		fmt.Fprintf(os.Stderr, "bench: domain probe counted %d messages, want %d\n",
			dp.Messages(network.KindPacket), sends)
		os.Exit(1)
	}
	return ns
}
