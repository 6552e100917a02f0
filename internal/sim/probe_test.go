package sim

import "testing"

// countProbe records every probe callback.
type countProbe struct {
	scheduled, fired int
	fastPath         int
	maxPending       int
}

func (p *countProbe) EventScheduled(at Time, pending int, fastPath bool) {
	p.scheduled++
	if fastPath {
		p.fastPath++
	}
	if pending > p.maxPending {
		p.maxPending = pending
	}
}
func (p *countProbe) EventFired(now Time, pending int) { p.fired++ }

func TestProbeObservesScheduleFire(t *testing.T) {
	k := New(1)
	p := &countProbe{}
	k.SetProbe(p)
	if k.Probe() != Probe(p) {
		t.Fatal("Probe() did not return the attached probe")
	}

	k.At(1, func() {})
	k.At(2, func() {})
	k.At(0, func() {}) // same-time fast path
	if p.scheduled != 3 || p.fastPath != 1 {
		t.Fatalf("scheduled=%d fastPath=%d, want 3 and 1", p.scheduled, p.fastPath)
	}
	if p.maxPending != 3 {
		t.Fatalf("maxPending=%d, want 3", p.maxPending)
	}
	k.Run()
	if p.fired != 3 {
		t.Fatalf("fired=%d, want 3", p.fired)
	}
}

func TestProbeDoesNotChangeEventOrder(t *testing.T) {
	run := func(probe Probe) []int {
		k := New(42)
		if probe != nil {
			k.SetProbe(probe)
		}
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			k.At(Time(k.Rand().Float64()), func() { order = append(order, i) })
		}
		k.Run()
		return order
	}
	plain := run(nil)
	probed := run(&countProbe{})
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("event order diverged at %d: %v vs %v", i, plain, probed)
		}
	}
}

func TestKernelHookAttachesToNewKernels(t *testing.T) {
	p := &countProbe{}
	SetKernelHook(func(k *Kernel) { k.SetProbe(p) })
	defer SetKernelHook(nil)

	k := New(1)
	if k.Probe() != Probe(p) {
		t.Fatal("hook did not attach probe to new kernel")
	}
	k.After(0, func() {})
	k.Run()
	if p.fired != 1 {
		t.Fatalf("fired=%d, want 1", p.fired)
	}

	SetKernelHook(nil)
	if New(1).Probe() != nil {
		t.Fatal("cleared hook still attaches probes")
	}
}

func TestInstallKernelHookRefusesToReplace(t *testing.T) {
	defer SetKernelHook(nil)
	if !InstallKernelHook(func(*Kernel) {}) {
		t.Fatal("install with no hook present failed")
	}
	if InstallKernelHook(func(*Kernel) {}) {
		t.Fatal("second install replaced an existing hook")
	}
	SetKernelHook(nil)
	if !InstallKernelHook(func(*Kernel) {}) {
		t.Fatal("install after clearing failed")
	}
}
