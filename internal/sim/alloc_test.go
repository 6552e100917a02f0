//go:build !race

package sim

import (
	"iter"
	"math/rand"
	"testing"
)

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestProcHandoffAllocatesNothing: a Wait handoff and a Suspend/Resume
// pair schedule the proc's bound wake handler and allocate nothing once
// the kernel's queues are warm.
func TestProcHandoffAllocatesNothing(t *testing.T) {
	k := New(1)
	stop := false
	k.Go(func(p *Proc) {
		for !stop {
			p.Wait(Microsecond)
		}
	})
	suspender := k.Go(func(p *Proc) {
		for !stop {
			p.Suspend()
		}
	})
	k.RunUntil(0) // every proc has started and parked
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"wait", func() { k.RunUntil(k.Now() + Microsecond) }},
		{"suspend/resume", func() { suspender.Resume(); k.RunUntil(k.Now()) }},
	} {
		for i := 0; i < 1000; i++ { // warm the queues
			c.op()
		}
		if n := testing.AllocsPerRun(1000, c.op); n != 0 {
			t.Errorf("%s: %v allocs per handoff, want 0", c.name, n)
		}
	}
	stop = true
	suspender.Resume()
	k.Run()
}

// TestProcSpawnAllocs: spawning a proc that waits once and running it to
// the end allocates at most one more than a bare iter.Pull coroutine
// driven the same way: a record of the coroutine's two ends, a body
// closure that parks once, and next called until the body returns. The
// one allowed extra is the proc's bound wake handler. Measuring both in
// one test keeps the pin independent of how many allocations the Go
// release's coroutines make.
func TestProcSpawnAllocs(t *testing.T) {
	type coro struct {
		next  func() (struct{}, bool)
		yield func(struct{}) bool
	}
	bare := testing.AllocsPerRun(100, func() {
		c := &coro{}
		c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			c.yield(struct{}{}) // the one Wait
		})
		for {
			if _, ok := c.next(); !ok {
				break
			}
		}
	})
	k := New(1)
	body := func(p *Proc) { p.Wait(Microsecond) }
	spawn := func() {
		k.Go(body)
		k.Run()
	}
	spawn() // warm the queues
	if proc := testing.AllocsPerRun(100, spawn); proc > bare+1 {
		t.Errorf("a spawned proc makes %v allocs, a bare coroutine %v: want at most one more", proc, bare)
	}
}

// TestKernelChainAllocatesNothing: once the heap has grown to a chain's
// depth, scheduling and firing allocate nothing. Sixty-four handlers
// each reschedule themselves a random delay ahead, so every RunUntil
// step pushes, sifts and pops entries that hold their handler directly.
func TestKernelChainAllocatesNothing(t *testing.T) {
	k := New(1)
	rng := rand.New(rand.NewSource(3))
	var fn func()
	fn = func() { k.After(Time(1+rng.Float64())*Microsecond, fn) }
	for i := 0; i < 64; i++ {
		k.After(Time(rng.Float64())*Microsecond, fn)
	}
	k.RunUntil(1000 * Microsecond) // warm the heap
	step := func() { k.RunUntil(k.Now() + Microsecond) }
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("%v allocs per RunUntil step, want 0", n)
	}
}
