// Package mgmt models cluster-management system software — the keynote's
// claim that as "system scale explodes even for moderate cost systems,
// the software tools to manage them will take on new responsibilities
// alleviating much of the burden experienced by today's practitioners."
//
// The concrete system modeled is health monitoring: every node emits a
// heartbeat each Period; a collector declares a node dead after missing
// Misses consecutive beats. Aggregation is either flat (every node
// reports to one master — the rsh-loop of 2002 practice) or a k-ary
// reporting tree (each level summarizes its children). The package
// provides both closed-form scaling laws and a discrete-event
// validation of detection latency.
package mgmt

import (
	"fmt"

	"northstar/internal/sim"
)

// Monitor describes a cluster health-monitoring configuration.
type Monitor struct {
	// Nodes is the number of monitored nodes.
	Nodes int
	// Period is the heartbeat interval (default 10 s).
	Period sim.Time
	// Misses is how many consecutive missing beats declare a node dead
	// (default 2).
	Misses int
	// Fanout is the reporting-tree arity; 0 means flat (all nodes
	// report directly to one master).
	Fanout int
	// CollectorRate is how many reports per second one collector
	// process can ingest (default 5000 — a 2002-era daemon).
	CollectorRate float64
	// HopDelay is the forwarding delay per tree level (default 50 ms:
	// userspace daemon wakeup + send).
	HopDelay sim.Time
}

func (m Monitor) withDefaults() Monitor {
	if m.Period == 0 {
		m.Period = 10 * sim.Second
	}
	if m.Misses == 0 {
		m.Misses = 2
	}
	if m.CollectorRate == 0 {
		m.CollectorRate = 5000
	}
	if m.HopDelay == 0 {
		m.HopDelay = 50 * sim.Millisecond
	}
	return m
}

// Validate checks the configuration.
func (m Monitor) Validate() error {
	m = m.withDefaults()
	if m.Nodes <= 0 {
		return fmt.Errorf("mgmt: monitor needs nodes > 0")
	}
	if m.Fanout < 0 || m.Fanout == 1 {
		return fmt.Errorf("mgmt: fanout must be 0 (flat) or >= 2, got %d", m.Fanout)
	}
	if m.Period <= 0 || m.Misses <= 0 {
		return fmt.Errorf("mgmt: invalid period/misses")
	}
	return nil
}

// Levels returns the reporting-tree depth (1 for flat: node -> master).
func (m Monitor) Levels() int {
	m = m.withDefaults()
	if m.Fanout == 0 {
		return 1
	}
	levels := 0
	for covered := 1; covered < m.Nodes; covered *= m.Fanout {
		levels++
	}
	if levels == 0 {
		levels = 1
	}
	return levels
}

// CollectorLoad returns reports/second arriving at the busiest
// collector: N/Period for flat, Fanout/Period per tree vertex.
func (m Monitor) CollectorLoad() float64 {
	m = m.withDefaults()
	if m.Fanout == 0 {
		return float64(m.Nodes) / float64(m.Period)
	}
	return float64(m.Fanout) / float64(m.Period)
}

// Saturated reports whether the busiest collector exceeds its ingest
// rate — the point at which flat monitoring falls over.
func (m Monitor) Saturated() bool {
	m = m.withDefaults()
	return m.CollectorLoad() > m.CollectorRate
}

// DetectionLatency returns the analytic worst-case time from a node
// dying to the master learning it: Misses+1 periods at the leaf
// collector (the failure can land right after a beat), plus one
// forwarding hop per remaining tree level. Saturated flat monitors
// return +Inf — the master's queue grows without bound.
func (m Monitor) DetectionLatency() sim.Time {
	m = m.withDefaults()
	if m.Saturated() {
		return sim.Forever
	}
	detect := sim.Time(m.Misses+1) * m.Period
	return detect + sim.Time(m.Levels()-1)*m.HopDelay
}

// SimulateDetection validates the analytic latency by discrete-event
// simulation: heartbeats run for a warm-up, one node dies at a
// deterministic but arbitrary phase, and the result is the virtual time
// from death to declaration at the leaf collector plus tree forwarding.
// It returns the measured latency.
func (m Monitor) SimulateDetection(seed int64) (sim.Time, error) {
	m = m.withDefaults()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if m.Saturated() {
		return sim.Forever, nil
	}
	tree := m.Fanout > 0
	k := sim.New(seed)
	probe, _ := k.Probe().(Probe)
	victim := k.Rand().Intn(m.Nodes)
	deathAt := 3*m.Period + sim.Time(k.Rand().Float64())*m.Period

	lastBeat := make([]sim.Time, m.Nodes)
	dead := false
	var declaredAt sim.Time = -1

	// Heartbeat processes.
	for n := 0; n < m.Nodes; n++ {
		n := n
		var beat func()
		beat = func() {
			if n == victim && k.Now() >= deathAt {
				return // node is dead; no more beats
			}
			lastBeat[n] = k.Now()
			if probe != nil {
				probe.HeartbeatSent(tree)
			}
			k.After(m.Period, beat)
		}
		// Stagger initial beats across one period.
		k.At(sim.Time(k.Rand().Float64())*m.Period, beat)
	}
	k.At(deathAt, func() { dead = true })

	// Collector sweep: every period, check for nodes silent for
	// Misses periods.
	var sweep func()
	sweep = func() {
		if dead && declaredAt < 0 && k.Now()-lastBeat[victim] > sim.Time(m.Misses)*m.Period {
			declaredAt = k.Now()
			k.Stop()
			return
		}
		k.After(m.Period/4, sweep) // collectors poll finer than the period
	}
	k.After(0, sweep)
	k.RunUntil(deathAt + 100*m.Period)
	if declaredAt < 0 {
		return 0, fmt.Errorf("mgmt: failure never detected")
	}
	latency := declaredAt - deathAt + sim.Time(m.Levels()-1)*m.HopDelay
	if probe != nil {
		probe.DetectionMeasured(tree, latency)
	}
	return latency, nil
}
