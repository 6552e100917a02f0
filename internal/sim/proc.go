package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated sequential process: a coroutine that advances
// virtual time by blocking on the kernel. Procs make it possible to write
// simulated programs (for example MPI ranks) in ordinary sequential style
// — Send, Recv, compute — while the kernel interleaves them
// deterministically in virtual time.
//
// Exactly one party is runnable at any instant: either the kernel's
// driver or a single Proc holding the control token. A Proc relinquishes
// the token by calling Wait, Suspend, or by returning; the kernel hands
// the token to a Proc when a wake event for it fires. This handoff
// discipline means Procs need no locks for kernel state and the event
// order stays deterministic.
//
// The handoff rides on iter.Pull coroutines rather than goroutines parked
// on channels: a resume/yield pair is a direct coroutine switch with no
// scheduler round trip, which is roughly 4x cheaper and keeps the whole
// simulation on one OS thread. A consequence worth knowing: a panic
// inside a Proc now unwinds through the kernel's Run caller (where the
// suite's recovery shields catch it) instead of crashing the process from
// a detached goroutine.
//
// Proc methods must be called only from the Proc's own coroutine, with
// the exception of Resume, which is called from event handlers or other
// Procs.
//
// A handoff allocates nothing: Go binds the proc's one wake handler
// once, and Go's start event, Wait's timer and Resume all schedule that
// bound handler instead of a fresh closure per event.
type Proc struct {
	k         *Kernel
	next      func() (struct{}, bool) // kernel side: hand the token to the proc
	yield     func(struct{}) bool     // proc side: hand the token back
	wake      func()                  // p.deliver, bound once by Go
	waking    bool                    // a Resume is already in flight
	suspended bool                    // parked in Suspend (the only state Resume may wake)
	done      bool
}

// Go spawns fn as a simulated process, runnable immediately (at the
// current virtual time, after already-scheduled events at that time).
// It returns the Proc, which the caller may use to Resume it.
func (k *Kernel) Go(fn func(p *Proc)) *Proc {
	p := &Proc{k: k}
	p.wake = p.deliver
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	k.After(0, p.wake)
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Wait advances the process's virtual time by d seconds. Other events and
// processes run in the meantime. Wait panics on negative d.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	p.k.After(d, p.wake)
	p.block()
}

// Suspend blocks the process until another party calls Resume.
func (p *Proc) Suspend() {
	p.suspended = true
	p.block()
	p.suspended = false
}

// Resume wakes a process blocked in Suspend. The wake is scheduled as an
// event at the current virtual time, preserving deterministic ordering.
// Resuming a process that is not parked in Suspend (finished, not yet
// started, or in Wait) or that already has a wake in flight panics: it
// indicates a protocol bug in the caller, and silently dropping, queueing
// or misdirecting wakes would corrupt virtual-time bookkeeping.
func (p *Proc) Resume() {
	if p.done {
		panic("sim: Resume of finished proc")
	}
	if p.waking {
		panic("sim: Resume of proc with wake already in flight")
	}
	if !p.suspended {
		panic("sim: Resume of proc not parked in Suspend")
	}
	p.waking = true
	p.k.After(0, p.wake)
}

// deliver hands the control token to the proc; it returns when the proc
// blocks again or finishes.
func (p *Proc) deliver() {
	p.waking = false
	if _, ok := p.next(); !ok {
		p.done = true
	}
}

// block parks the proc's coroutine, returning the control token to the
// kernel, until its wake fires.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		// The pull side was stopped; no wake will ever arrive. Unwind the
		// coroutine rather than return into a dead simulation.
		panic("sim: proc resumed after kernel stopped it")
	}
}
