package mgmt

import (
	"testing"

	"northstar/internal/sim"
)

// recMgmtProbe records monitoring events; SimulateDetection is
// single-goroutine, so a plain struct is safe. It observes kernels too,
// as the suite observer's probe set does, so a kernel hook can attach it
// and the detection simulation finds it on its kernel.
type recMgmtProbe struct {
	kernelOnly
	flatBeats, treeBeats int
	detections           []struct {
		tree    bool
		latency sim.Time
	}
}

func (r *recMgmtProbe) HeartbeatSent(tree bool) {
	if tree {
		r.treeBeats++
	} else {
		r.flatBeats++
	}
}

func (r *recMgmtProbe) DetectionMeasured(tree bool, latency sim.Time) {
	r.detections = append(r.detections, struct {
		tree    bool
		latency sim.Time
	}{tree, latency})
}

// kernelOnly is a sim.Probe that observes the kernel only.
type kernelOnly struct{}

func (kernelOnly) EventScheduled(sim.Time, int, bool) {}
func (kernelOnly) EventFired(sim.Time, int)           {}

// attach installs a kernel hook giving every new kernel p, until the
// test ends.
func attach(t *testing.T, p sim.Probe) {
	sim.SetKernelHook(func(k *sim.Kernel) { k.SetProbe(p) })
	t.Cleanup(func() { sim.SetKernelHook(nil) })
}

func TestDetectionProbeFlat(t *testing.T) {
	rec := &recMgmtProbe{}
	attach(t, rec)

	m := Monitor{Nodes: 32}
	lat, err := m.SimulateDetection(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.flatBeats == 0 {
		t.Error("no flat heartbeats recorded")
	}
	if rec.treeBeats != 0 {
		t.Errorf("recorded %d tree heartbeats on a flat monitor", rec.treeBeats)
	}
	if len(rec.detections) != 1 {
		t.Fatalf("recorded %d detections, want 1", len(rec.detections))
	}
	if d := rec.detections[0]; d.tree || d.latency != lat {
		t.Errorf("detection = %+v, want flat with latency %v", d, lat)
	}
}

func TestDetectionProbeTree(t *testing.T) {
	rec := &recMgmtProbe{}
	attach(t, rec)

	m := Monitor{Nodes: 64, Fanout: 8}
	lat, err := m.SimulateDetection(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.treeBeats == 0 {
		t.Error("no tree heartbeats recorded")
	}
	if rec.flatBeats != 0 {
		t.Errorf("recorded %d flat heartbeats on a tree monitor", rec.flatBeats)
	}
	if len(rec.detections) != 1 || !rec.detections[0].tree || rec.detections[0].latency != lat {
		t.Errorf("detections = %+v, want one tree detection with latency %v", rec.detections, lat)
	}
}

// TestDetectionProbeUninstalled: a detection simulation whose kernel has
// no probe, or a probe that observes the kernel only, reports nowhere
// and measures what an unobserved one does.
func TestDetectionProbeUninstalled(t *testing.T) {
	rec := &recMgmtProbe{}
	attach(t, rec)
	sim.SetKernelHook(nil)
	m := Monitor{Nodes: 16}
	want, err := m.SimulateDetection(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.flatBeats != 0 || len(rec.detections) != 0 {
		t.Fatalf("probe saw events after the hook was removed: %+v", rec)
	}

	attach(t, kernelOnly{})
	if got, err := m.SimulateDetection(3); err != nil || got != want {
		t.Errorf("on a kernel-only probed kernel: latency %v, err %v; want %v", got, err, want)
	}
}
