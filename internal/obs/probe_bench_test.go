package obs

import (
	"math/rand"
	"testing"

	"northstar/internal/sim"
)

// BenchmarkKernelEventThroughputProbed is BenchmarkKernelEventThroughput
// (internal/sim) with a counting probe attached: the enabled-observability
// cost per event. Compare against the nil-probe number from the sim
// package; the benchmark's rung.kernel_event{,_probed} time both.
func BenchmarkKernelEventThroughputProbed(b *testing.B) {
	k := sim.New(1)
	k.SetProbe(NewKernelProbe())
	rng := rand.New(rand.NewSource(7))
	var fn func()
	n := 0
	fn = func() {
		if n < b.N {
			n++
			k.After(sim.Time(rng.Float64()), fn)
		}
	}
	b.ReportAllocs()
	k.After(0, fn)
	k.Run()
}
