package check

import (
	"math"
	"testing"

	"northstar/internal/fault"
	"northstar/internal/mgmt"
	"northstar/internal/sim"
	"northstar/internal/stats"
)

// Metamorphic properties of the stochastic models: relations between
// runs that must hold however the numbers themselves move. Three
// families, per the verification design:
//
//   - seed determinism: the same seed reproduces bit-identical results,
//     and different seeds agree within a declared statistical tolerance
//     (the models are Monte Carlo estimates of the same quantity);
//   - scale monotonicity: growing the cluster can only worsen MTBF,
//     all-up availability, and checkpoint efficiency;
//   - structural invariance: analytic formulas and simulations of the
//     same system must agree to their documented accuracy.

func testCheckpoint(mtbf sim.Time) fault.Checkpoint {
	return fault.Checkpoint{
		Work:     7 * sim.Day,
		Interval: 3 * sim.Hour,
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     mtbf,
	}
}

func TestCheckpointSeedDeterminism(t *testing.T) {
	c := testCheckpoint(40 * sim.Hour)
	a, err := c.Simulate(nil, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Simulate(nil, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
}

// Different seeds estimate the same mean completion time: with 200 runs
// each, the estimates must agree within a loose 10%% band (the spread
// observed across seeds is ~2-3%%; 10%% only catches real bias bugs, not
// Monte Carlo noise).
func TestCheckpointSeedTolerance(t *testing.T) {
	c := testCheckpoint(40 * sim.Hour)
	ref, err := c.Simulate(nil, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= 6; seed++ {
		r, err := c.Simulate(nil, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(float64(r.MeanCompletion-ref.MeanCompletion)) / float64(ref.MeanCompletion); rel > 0.10 {
			t.Errorf("seed %d: mean completion %v vs seed 1's %v (%.1f%% apart)",
				seed, r.MeanCompletion, ref.MeanCompletion, 100*rel)
		}
		if r.UsefulFraction <= 0 || r.UsefulFraction > 1 {
			t.Errorf("seed %d: useful fraction %g outside (0,1]", seed, r.UsefulFraction)
		}
	}
}

// Halving the MTBF (doubling the cluster) can only hurt: more failures,
// more lost work, lower useful fraction.
func TestCheckpointScaleMonotonicity(t *testing.T) {
	prev := fault.Result{UsefulFraction: math.Inf(1), MeanFailures: -1}
	for _, mtbf := range []sim.Time{160 * sim.Hour, 80 * sim.Hour, 40 * sim.Hour, 20 * sim.Hour} {
		r, err := testCheckpoint(mtbf).Simulate(nil, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		if r.Censored {
			t.Fatalf("mtbf %v: unexpectedly censored", mtbf)
		}
		if r.UsefulFraction > prev.UsefulFraction {
			t.Errorf("mtbf %v: useful fraction rose to %g from %g at double the MTBF",
				mtbf, r.UsefulFraction, prev.UsefulFraction)
		}
		if r.MeanFailures < prev.MeanFailures {
			t.Errorf("mtbf %v: mean failures fell to %g from %g at double the MTBF",
				mtbf, r.MeanFailures, prev.MeanFailures)
		}
		prev = r
	}
}

// System MTBF is exactly mean-lifetime/N, so it must halve as nodes
// double, and the all-up availability must fall with scale.
func TestSystemScaleMonotonicity(t *testing.T) {
	lifetime := stats.Exponential{Rate: 1 / float64(1000*sim.Day)}
	repair := stats.Constant{V: float64(4 * sim.Hour)}
	prevMTBF := sim.Forever
	prevAvail := math.Inf(1)
	for _, nodes := range []int{1, 10, 100, 1000, 10000} {
		s := fault.System{Nodes: nodes, Lifetime: lifetime, Repair: repair}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if m := s.MTBF(); m >= prevMTBF {
			t.Errorf("nodes=%d: MTBF %v did not fall from %v", nodes, m, prevMTBF)
		} else {
			prevMTBF = m
		}
		if a := s.AllUpAvailability(); a > prevAvail || a <= 0 || a > 1 {
			t.Errorf("nodes=%d: all-up availability %g (prev %g) violates monotone (0,1]", nodes, a, prevAvail)
		} else {
			prevAvail = a
		}
	}
}

// FirstFailureMean is a Monte Carlo estimate: same seed bit-identical,
// and for exponential lifetimes it estimates MTBF, so it must land
// within 15% of the analytic value at 2000 runs.
func TestFirstFailureSeedAndAccuracy(t *testing.T) {
	s := fault.System{Nodes: 64, Lifetime: stats.Exponential{Rate: 1 / float64(1000*sim.Day)}}
	a := s.FirstFailureMean(nil, 2000, 9)
	if b := s.FirstFailureMean(nil, 2000, 9); a != b {
		t.Errorf("same seed, different estimates: %v vs %v", a, b)
	}
	if c := s.FirstFailureMean(nil, 2000, 10); math.Abs(float64(c-a))/float64(a) > 0.15 {
		t.Errorf("seeds 9 and 10 disagree beyond tolerance: %v vs %v", a, c)
	}
	analytic := s.MTBF()
	if rel := math.Abs(float64(a-analytic)) / float64(analytic); rel > 0.15 {
		t.Errorf("exponential first-failure estimate %v is %.0f%% from analytic MTBF %v", a, 100*rel, analytic)
	}
}

// Detection latency simulation: same seed bit-identical; any seed's
// simulated latency is positive and never exceeds the analytic
// worst case (which assumes the most hostile death phase), plus one
// collector sweep of slack.
func TestMonitorSeedDeterminismAndBound(t *testing.T) {
	m := mgmt.Monitor{Nodes: 128, Period: sim.Second, Fanout: 16}
	a, err := m.SimulateDetection(3)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := m.SimulateDetection(3); a != b {
		t.Errorf("same seed, different latencies: %v vs %v", a, b)
	}
	worst := m.DetectionLatency() + m.Period
	for seed := int64(1); seed <= 8; seed++ {
		got, err := m.SimulateDetection(seed)
		if err != nil {
			t.Fatal(err)
		}
		if got <= 0 || got > worst {
			t.Errorf("seed %d: simulated latency %v outside (0, %v]", seed, got, worst)
		}
	}
}

// Deeper reporting trees add forwarding hops, so analytic detection
// latency is nondecreasing in tree depth at fixed scale, and the flat
// master's load (not the tree's) grows with node count until it
// saturates to an unbounded latency.
func TestMonitorScaleMonotonicity(t *testing.T) {
	prev := sim.Time(0)
	for _, fanout := range []int{0, 64, 16, 4, 2} { // deepening trees over 4096 nodes
		m := mgmt.Monitor{Nodes: 4096, Period: sim.Second, Fanout: fanout}
		if m.Saturated() {
			continue // flat at 4096 nodes saturates: latency is Forever, skip
		}
		d := m.DetectionLatency()
		if d < prev {
			t.Errorf("fanout %d: latency %v fell below shallower tree's %v", fanout, d, prev)
		}
		prev = d
	}

	prevLoad := 0.0
	for _, nodes := range []int{128, 1024, 8192, 65536} {
		m := mgmt.Monitor{Nodes: nodes, Period: sim.Second}
		load := m.CollectorLoad()
		if load <= prevLoad {
			t.Errorf("nodes=%d: flat collector load %g did not grow from %g", nodes, load, prevLoad)
		}
		prevLoad = load
		tree := mgmt.Monitor{Nodes: nodes, Period: sim.Second, Fanout: 16}
		if tree.Saturated() {
			t.Errorf("nodes=%d: 16-ary tree saturated — the paper's claim is that trees never do", nodes)
		}
	}
	if flat := (mgmt.Monitor{Nodes: 100000, Period: sim.Second}); !flat.Saturated() || flat.DetectionLatency() != sim.Forever {
		t.Error("flat master at 100k nodes must saturate to Forever detection")
	}
}
