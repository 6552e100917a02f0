package sim

import "sync/atomic"

// Probe observes the kernel's two actions: scheduling an event and
// firing one. A probe is attached with (*Kernel).SetProbe; the kernel
// holds nil by default and every hook site is guarded by a single
// nil-check, so an unobserved kernel pays nothing on its hot path.
//
// All methods are called synchronously from whichever goroutine is driving
// the kernel (the Run caller or, transitively, a Proc holding the control
// token), so implementations need no locking of their own as long as one
// probe instance observes kernels driven from one goroutine at a time.
// Probe calls must not schedule events: they observe the engine, they
// are not part of the simulation.
type Probe interface {
	// EventScheduled is called after an event is queued. at is its due
	// time, pending the queue depth including the new event (future
	// queue plus same-time FIFO, see Kernel.Pending), and fastPath
	// reports whether the event bypassed the future queue via the
	// same-time FIFO.
	EventScheduled(at Time, pending int, fastPath bool)
	// EventFired is called immediately before an event handler executes,
	// with the clock already advanced to the event's timestamp. pending
	// is the queue depth after removing the fired event.
	EventFired(now Time, pending int)
}

// SetProbe attaches p to the kernel (nil detaches). Attaching or swapping
// a probe never perturbs the simulation: probes observe scheduling, they
// do not participate in it, so event order is identical with or without
// one.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// Probe returns the attached probe, or nil.
func (k *Kernel) Probe() Probe { return k.probe }

// kernelHook, when set, is invoked by New with every freshly constructed
// Kernel, before New returns. Observability layers use it to attach
// probes to kernels created deep inside models (machine, network, sched)
// without threading a probe parameter through every constructor.
var kernelHook atomic.Pointer[func(*Kernel)]

// SetKernelHook installs fn to be called with every Kernel subsequently
// created by New; nil removes the hook. The hook must be safe for
// concurrent calls (kernels are created from parallel suite workers).
// Only one hook is active at a time: observability is process-global,
// and installing a hook replaces any previous one.
func SetKernelHook(fn func(*Kernel)) {
	if fn == nil {
		kernelHook.Store(nil)
		return
	}
	kernelHook.Store(&fn)
}

// InstallKernelHook installs fn like SetKernelHook, but refuses to
// replace an existing hook: if one is already installed it is left in
// place and InstallKernelHook reports false. Observability layers use it
// so that a second concurrent observer fails loudly instead of silently
// stealing the first one's kernel attribution. fn must be non-nil;
// remove the hook with SetKernelHook(nil).
func InstallKernelHook(fn func(*Kernel)) bool {
	return kernelHook.CompareAndSwap(nil, &fn)
}
