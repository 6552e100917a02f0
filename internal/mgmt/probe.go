package mgmt

import "northstar/internal/sim"

// Probe observes the monitoring model: heartbeat traffic generated
// during detection simulations and the detection latencies measured,
// split by aggregation shape (flat vs reporting tree). Each detection
// simulation takes its probe from the kernel it builds: if the kernel's
// sim.Probe also implements Probe, the simulation reports to it,
// otherwise it holds nil, and an unobserved simulation pays one type
// assertion per SimulateDetection call and nothing per heartbeat.
//
// Methods are called synchronously from the goroutine driving the
// monitor's kernel; probes observe, they never schedule events or
// change a measured latency.
type Probe interface {
	// HeartbeatSent is called once per heartbeat emitted during a
	// detection simulation. tree reports the aggregation shape
	// (false = flat master, true = k-ary reporting tree).
	HeartbeatSent(tree bool)
	// DetectionMeasured is called when SimulateDetection returns a
	// measured death-to-declaration latency.
	DetectionMeasured(tree bool, latency sim.Time)
}
