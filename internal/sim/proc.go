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
// the exception of Resume and Interrupt which are called from event
// handlers or other Procs.
//
// A handoff allocates nothing: Go binds the proc's three wake handlers
// (timer, resume, interrupt) once, and Wait, Resume and Interrupt
// schedule those bound handlers instead of a fresh closure per event.
// Resume parks its payload on the Proc until the wake fires.
type Proc struct {
	k         *Kernel
	id        int
	next      func() (struct{}, bool) // kernel side: hand the token to the proc
	yield     func(struct{}) bool     // proc side: hand the token back
	sig       procSignal              // wake payload, set before next
	payload   any                     // Resume's payload until its wake fires
	waking    bool                    // a Resume or Interrupt is already in flight
	suspended bool                    // parked in Suspend (the only state Resume may wake)
	done      bool

	// Wake handlers, bound once by Go.
	onTimer, onResume, onInterrupt func()
}

type procSignal struct {
	interrupted bool
	payload     any
}

// Go spawns fn as a simulated process, runnable immediately (at the
// current virtual time, after already-scheduled events at that time).
// It returns the Proc, which the caller may use to Resume or Interrupt it.
func (k *Kernel) Go(fn func(p *Proc)) *Proc {
	k.procs++
	p := &Proc{k: k, id: k.procs}
	p.onTimer, p.onResume, p.onInterrupt = p.timerFired, p.resumeFired, p.interruptFired
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	k.After(0, p.onTimer)
	return p
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// ID returns a small integer unique among Procs of this kernel.
func (p *Proc) ID() int { return p.id }

// Wait advances the process's virtual time by d seconds. Other events and
// processes run in the meantime. Wait panics on negative d. It reports
// whether the wait completed without interruption (an Interrupt delivered
// while waiting cancels the remaining delay).
func (p *Proc) Wait(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	h := p.k.After(d, p.onTimer)
	sig := p.block()
	if sig.interrupted {
		h.Cancel()
		return false
	}
	return true
}

// Suspend blocks the process until another party calls Resume or
// Interrupt. It returns the payload passed to Resume (nil for Interrupt)
// and whether the wake was a normal Resume.
func (p *Proc) Suspend() (payload any, resumed bool) {
	p.suspended = true
	sig := p.block()
	p.suspended = false
	return sig.payload, !sig.interrupted
}

// Resume wakes a process blocked in Suspend, handing it payload. The wake
// is scheduled as an event at the current virtual time, preserving
// deterministic ordering. Resuming a process that is not parked in
// Suspend (finished, not yet started, or in Wait) or that already has a
// wake in flight panics: it indicates a protocol bug in the caller, and
// silently dropping, queueing or misdirecting wakes would corrupt
// virtual-time bookkeeping.
func (p *Proc) Resume(payload any) {
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
	p.payload = payload
	p.k.After(0, p.onResume)
}

// Interrupt wakes a process blocked in Wait or Suspend with an
// interruption signal (Wait returns false; Suspend returns resumed=false).
// Interrupting a finished process is a no-op.
func (p *Proc) Interrupt() {
	if p.done || p.waking {
		return
	}
	p.waking = true
	p.k.After(0, p.onInterrupt)
}

// timerFired is the wake of Go's start event and of Wait's timer.
func (p *Proc) timerFired() { p.deliver(procSignal{}) }

// resumeFired is the wake Resume schedules.
func (p *Proc) resumeFired() {
	payload := p.payload
	p.payload = nil
	p.deliver(procSignal{payload: payload})
}

// interruptFired is the wake Interrupt schedules.
func (p *Proc) interruptFired() {
	if p.done {
		return
	}
	p.deliver(procSignal{interrupted: true})
}

// deliver hands the control token to the proc; it returns when the proc
// blocks again or finishes.
func (p *Proc) deliver(sig procSignal) {
	p.waking = false
	p.sig = sig
	if _, ok := p.next(); !ok {
		p.done = true
	}
}

// block parks the proc's coroutine, returning the control token to the
// kernel, until a wake signal arrives.
func (p *Proc) block() procSignal {
	if !p.yield(struct{}{}) {
		// The pull side was stopped; no wake will ever arrive. Unwind the
		// coroutine rather than return garbage.
		panic("sim: proc resumed after kernel stopped it")
	}
	return p.sig
}
