//go:build !race

package sim

import "testing"

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestProcHandoffAllocatesNothing: a Wait handoff, a Suspend/Resume pair
// and an Interrupt of a Wait schedule the proc's bound wake handlers and
// allocate nothing once the kernel's queues are warm.
func TestProcHandoffAllocatesNothing(t *testing.T) {
	k := New(1)
	stop := false
	waiter := k.Go(func(p *Proc) {
		for !stop {
			p.Wait(Microsecond)
		}
	})
	suspender := k.Go(func(p *Proc) {
		for !stop {
			p.Suspend()
		}
	})
	sleeper := k.Go(func(p *Proc) {
		for !stop {
			p.Wait(Hour)
		}
	})
	k.RunUntil(0) // every proc has started and parked
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"wait", func() { k.RunUntil(k.Now() + Microsecond) }},
		{"suspend/resume", func() { suspender.Resume(nil); k.RunUntil(k.Now()) }},
		{"interrupt", func() { sleeper.Interrupt(); k.RunUntil(k.Now()) }},
	} {
		for i := 0; i < 1000; i++ { // warm the queues and free lists
			c.op()
		}
		if n := testing.AllocsPerRun(1000, c.op); n != 0 {
			t.Errorf("%s: %v allocs per handoff, want 0", c.name, n)
		}
	}
	stop = true
	waiter.Interrupt()
	suspender.Resume(nil)
	sleeper.Interrupt()
	k.Run()
}
