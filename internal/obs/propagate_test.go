package obs

import (
	"testing"

	"northstar/internal/mc"
	"northstar/internal/sim"
)

func TestKernelProbeMerge(t *testing.T) {
	mk := func(events int, horizon sim.Time) *KernelProbe {
		p := NewKernelProbe()
		k := sim.New(1)
		k.SetProbe(p)
		for i := 0; i < events; i++ {
			k.After(sim.Time(i), func() {})
		}
		k.RunUntil(horizon)
		return p
	}
	a, b := mk(10, 100), mk(25, 3)
	wantScheduled := a.Scheduled() + b.Scheduled()
	wantFired := a.Fired() + b.Fired()
	wantPeak := max(a.PeakPending(), b.PeakPending())
	wantVT := max(a.LastVirtualTime(), b.LastVirtualTime())
	wantDepth := a.DepthHistogram().Count() + b.DepthHistogram().Count()

	a.Merge(b)
	if a.Scheduled() != wantScheduled {
		t.Errorf("Scheduled = %d, want %d", a.Scheduled(), wantScheduled)
	}
	if a.Fired() != wantFired {
		t.Errorf("Fired = %d, want %d", a.Fired(), wantFired)
	}
	if a.PeakPending() != wantPeak {
		t.Errorf("PeakPending = %d, want %d", a.PeakPending(), wantPeak)
	}
	if a.LastVirtualTime() != wantVT {
		t.Errorf("LastVirtualTime = %v, want %v", a.LastVirtualTime(), wantVT)
	}
	if got := a.DepthHistogram().Count(); got != wantDepth {
		t.Errorf("depth histogram count = %d, want %d", got, wantDepth)
	}
}

// TestForkProbeAttributesPoolWork proves the propagator carries probe
// attribution across mc pool goroutines: kernels built inside ForEach
// tasks count into the spec's probe, deterministically, however the
// tasks are scheduled.
func TestForkProbeAttributesPoolWork(t *testing.T) {
	runOnce := func(helpers int) int64 {
		o := NewSuiteObserver(nil, nil, nil)
		o.Begin(1, 1)
		defer o.End()
		so := o.Start("T1", "propagation probe", 0)
		p := mc.NewPool(helpers)
		defer p.Close()
		so.Run(func() {
			mc.ForEach(p, 12, func(i int) {
				k := sim.New(1)
				for e := 0; e <= i; e++ {
					k.After(sim.Time(e), func() {})
				}
				k.RunUntil(1000)
			})
		})
		so.Finish(nil, false)
		return o.Registry().Scope("T1").Counter("events_fired")
	}
	// 12 tasks firing 1..12 events each = 78 fired, whether inline or
	// spread over 8 helpers.
	const want = 78
	for _, helpers := range []int{0, 2, 8} {
		if got := runOnce(helpers); got != want {
			t.Errorf("helpers=%d: probe fired %d events, want %d", helpers, got, want)
		}
	}
}

// TestForkProbeUnobservedCallerIsNoop: mc work submitted from a
// goroutine with no bound probe must run unwrapped and unattributed.
func TestForkProbeUnobservedCallerIsNoop(t *testing.T) {
	o := NewSuiteObserver(nil, nil, nil)
	o.Begin(1, 1)
	defer o.End()
	p := mc.NewPool(2)
	defer p.Close()
	fired := 0
	mc.ForEach(p, 1, func(i int) {
		k := sim.New(1)
		k.After(1, func() { fired++ })
		k.RunUntil(10)
	})
	if fired != 1 {
		t.Fatalf("task did not run: fired=%d", fired)
	}
}

// TestForkProbeNestedDo: a task that itself fans out merges its
// children's counters up through each level to the spec probe.
func TestForkProbeNestedDo(t *testing.T) {
	o := NewSuiteObserver(nil, nil, nil)
	o.Begin(1, 1)
	defer o.End()
	so := o.Start("T2", "nested", 0)
	p := mc.NewPool(3)
	defer p.Close()
	so.Run(func() {
		mc.ForEach(p, 3, func(i int) {
			mc.ForEach(p, 4, func(j int) {
				k := sim.New(1)
				k.After(1, func() {})
				k.RunUntil(10)
			})
		})
	})
	so.Finish(nil, false)
	if got := o.Registry().Scope("T2").Counter("events_fired"); got != 12 {
		t.Errorf("probe fired %d events, want 12 (3x4 nested tasks)", got)
	}
}
