package fault

import "sync/atomic"

// Probe observes the fault models' estimates: the failures struck,
// checkpoints committed and restarts completed in the replications an
// estimate averages. Each estimate reports once, on the goroutine that
// asked for it, after its replications finish; replications a censored
// estimate ran and then discarded are not counted. The provider returns
// a probe per goroutine, so implementations need no locking. Probes
// observe tallies, they never alter a sample or a reduction — attaching
// one cannot change a simulated result.
type Probe interface {
	// Estimated is called once per estimate with its totals. A
	// first-failure estimate reports one failure per replication and no
	// checkpoints or restarts; a checkpoint estimate whose first run
	// hit the cap averages nothing and makes no call.
	Estimated(failures, checkpoints, restarts int64)
}

// probeProvider, when set, is consulted once per estimate for the probe
// observing the calling goroutine.
var probeProvider atomic.Pointer[func() Probe]

// SetProbeProvider installs fn as the per-estimate probe source; nil
// removes it. fn must be safe for concurrent calls from pool goroutines
// and should return nil for goroutines it does not observe. Process-
// global, like sim.SetKernelHook: one observability layer owns it at a
// time.
func SetProbeProvider(fn func() Probe) {
	if fn == nil {
		probeProvider.Store(nil)
		return
	}
	probeProvider.Store(&fn)
}

// newProbe returns the probe the current estimate should report to, or
// nil when unobserved.
func newProbe() Probe {
	fn := probeProvider.Load()
	if fn == nil {
		return nil
	}
	return (*fn)()
}
