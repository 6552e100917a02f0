// Package msg is the user-level message-passing layer that runs on a
// simulated machine: ranks, blocking and nonblocking point-to-point with
// MPI-style eager/rendezvous protocols, and the collectives the
// experiments run: a dissemination barrier, a binomial broadcast, a
// pairwise alltoall, and an allreduce with three algorithms to compare.
// Programs are written SPMD-style — an ordinary Go function executed by
// every rank as a sim.Proc — and all timing is virtual: the Go
// runtime's scheduling and GC cannot perturb measured latencies, which
// is exactly the substitution DESIGN.md §4 calls out for reproducing
// user-level messaging results inside a garbage-collected host.
//
// Requests: ISend and IRecv return a fresh *Request that belongs to the
// caller, who may keep it after it completes. Send, Recv and SendRecv
// wait before they return, so they use two requests the rank owns and
// reuses instead, one for the send and one for the receive. Every wait
// suspends the rank once: the request's completion charges the wait to
// CommTime, as it ends, and wakes the rank. SendRecv waits on its send;
// if the receive is still pending when the send completes, the wait
// passes to it, and the rank wakes when the receive completes. A
// reduction round of Allreduce is such an exchange whose wake comes its
// combine's compute time later, so the round costs one suspension too.
// The records that carry a message through the fabric (an eager send, a
// rendezvous handshake) come from free lists on the Comm with their
// fabric callbacks bound once, so a blocking send or receive allocates
// nothing in steady state.
package msg

import (
	"fmt"
	"io"

	"northstar/internal/machine"
	"northstar/internal/sim"
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ctrlBytes is the size of a protocol control message (RTS/CTS header).
const ctrlBytes = 64

// Algo names an allreduce algorithm.
type Algo string

// Allreduce algorithms; see Rank.Allreduce.
const (
	RecursiveDoubling Algo = "recursive-doubling"
	Ring              Algo = "ring"
	Binomial          Algo = "binomial"
)

// Options configures a communicator.
type Options struct {
	// EagerLimit is the largest message sent eagerly (default 16 KiB);
	// larger messages use the rendezvous protocol.
	EagerLimit int64
	// Allreduce selects the allreduce algorithm (default
	// RecursiveDoubling).
	Allreduce Algo
	// Trace, when set, receives one CSV line per message send
	// (virtual time, src, dst, tag, bytes, protocol) — a deterministic
	// communication timeline for offline analysis. The header row is
	// written when the communicator is created.
	Trace io.Writer
}

func (o Options) withDefaults() Options {
	if o.EagerLimit == 0 {
		o.EagerLimit = 16 << 10
	}
	if o.Allreduce == "" {
		o.Allreduce = RecursiveDoubling
	}
	return o
}

// Comm is a communicator: P ranks bound to the nodes of one machine.
type Comm struct {
	mach     *machine.Machine
	opts     Options
	ranks    []*Rank
	finished int
	errs     []error

	// Free lists of the records that carry messages through the fabric.
	freeEager []*eagerSend
	freeOps   []*sendOp
}

// NewComm returns a communicator spanning all nodes of m.
func NewComm(m *machine.Machine, opts Options) *Comm {
	c := &Comm{mach: m, opts: opts.withDefaults()}
	for i := 0; i < m.Ranks(); i++ {
		r := &Rank{comm: c, id: i}
		r.onCopied = r.copied
		c.ranks = append(c.ranks, r)
	}
	if c.opts.Trace != nil {
		fmt.Fprintln(c.opts.Trace, "time_s,src,dst,tag,bytes,protocol")
	}
	return c
}

// trace emits one timeline row if tracing is enabled.
func (c *Comm) trace(src, dst, tag int, bytes int64, protocol string) {
	if c.opts.Trace == nil {
		return
	}
	fmt.Fprintf(c.opts.Trace, "%.9f,%d,%d,%d,%d,%s\n",
		float64(c.mach.Kernel().Now()), src, dst, tag, bytes, protocol)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns rank i (for inspecting stats after a run).
func (c *Comm) Rank(i int) *Rank { return c.ranks[i] }

// Run executes fn SPMD-style on every rank and drives the simulation to
// completion. It returns the virtual time at which the last rank
// finished. If a rank panics, Run returns its error; if ranks block
// forever (a communication deadlock), Run reports which ranks were
// stuck.
func Run(m *machine.Machine, opts Options, fn func(r *Rank)) (sim.Time, error) {
	c := NewComm(m, opts)
	return c.Start(fn)
}

// Start is Run on an existing communicator, allowing post-run access to
// per-rank statistics.
func (c *Comm) Start(fn func(r *Rank)) (sim.Time, error) {
	k := c.mach.Kernel()
	for _, r := range c.ranks {
		r := r
		r.proc = k.Go(func(p *sim.Proc) {
			defer func() {
				if e := recover(); e != nil {
					c.errs = append(c.errs, fmt.Errorf("msg: rank %d panicked: %v", r.id, e))
				}
				r.finished = true
				c.finished++
			}()
			fn(r)
		})
	}
	end := k.Run()
	if len(c.errs) > 0 {
		return end, c.errs[0]
	}
	if c.finished != len(c.ranks) {
		var stuck []int
		for _, r := range c.ranks {
			if !r.finished {
				stuck = append(stuck, r.id)
			}
		}
		return end, fmt.Errorf("msg: deadlock: %d/%d ranks never finished (stuck: %v)", len(stuck), len(c.ranks), stuck)
	}
	return end, nil
}

// eagerSend carries one eager message through the fabric. Its fabric
// callbacks are bound once; the fabric calls each exactly once, in
// either order, and the record goes back on the Comm's free list after
// both have fired.
type eagerSend struct {
	c       *Comm
	req     *Request // sender's request, until injected
	dst     *Rank
	env     envelope
	pending int // callbacks still to fire

	onInjected, onDelivered func()
}

func (c *Comm) newEagerSend(req *Request, dst *Rank, env envelope) *eagerSend {
	var s *eagerSend
	if n := len(c.freeEager); n > 0 {
		s = c.freeEager[n-1]
		c.freeEager = c.freeEager[:n-1]
	} else {
		s = &eagerSend{c: c}
		s.onInjected, s.onDelivered = s.injected, s.delivered
	}
	s.req, s.dst, s.env, s.pending = req, dst, env, 2
	return s
}

func (s *eagerSend) injected() {
	req, bytes := s.req, s.env.bytes
	s.req = nil
	s.release()
	req.complete(bytes)
}

func (s *eagerSend) delivered() {
	dst, env := s.dst, s.env
	s.release()
	dst.deliver(env)
}

// release counts one fired callback and frees the record after both.
// Callers copy out what they need first.
func (s *eagerSend) release() {
	if s.pending--; s.pending == 0 {
		s.dst = nil
		s.c.freeEager = append(s.c.freeEager, s)
	}
}

// sendOp carries one rendezvous send from RTS to payload completion.
// Its handlers for RTS delivery, CTS arrival and the payload's two
// callbacks are bound once. The RTS envelope points at its op, so the
// receiver that matches it finds the sender directly. The op goes back
// on the Comm's free list once both payload callbacks have fired.
type sendOp struct {
	c       *Comm
	dst     *Rank
	env     envelope // the RTS
	req     *Request // sender's request
	recvReq *Request // receiver's matched request (set at match time)
	pending int      // payload callbacks still to fire

	onRTS, onCTS, onInjected, onDelivered func()
}

func (c *Comm) newSendOp(req *Request, dst *Rank, env envelope) *sendOp {
	var op *sendOp
	if n := len(c.freeOps); n > 0 {
		op = c.freeOps[n-1]
		c.freeOps = c.freeOps[:n-1]
	} else {
		op = &sendOp{c: c}
		op.onRTS, op.onCTS = op.rtsDelivered, op.ctsArrived
		op.onInjected, op.onDelivered = op.payloadInjected, op.payloadDelivered
	}
	env.kind, env.op = kindRTS, op
	op.dst, op.env, op.req, op.pending = dst, env, req, 2
	return op
}

// rtsDelivered hands the RTS to the receiver's matching.
func (op *sendOp) rtsDelivered() { op.dst.deliver(op.env) }

// matched records the receive that matched the RTS and sends the CTS
// back to the sender.
func (op *sendOp) matched(req *Request) {
	if op.recvReq != nil {
		panic(fmt.Sprintf("msg: RTS from rank %d (tag %d) matched twice", op.env.src, op.env.tag))
	}
	op.recvReq = req
	op.c.mach.Fabric().Send(op.dst.id, op.env.src, ctrlBytes, nil, op.onCTS)
}

// ctsArrived streams the payload once the CTS reaches the sender.
func (op *sendOp) ctsArrived() {
	op.c.mach.Fabric().Send(op.env.src, op.dst.id, op.env.bytes, op.onInjected, op.onDelivered)
}

func (op *sendOp) payloadInjected() {
	req, bytes := op.req, op.env.bytes
	op.release()
	req.complete(bytes)
}

func (op *sendOp) payloadDelivered() {
	req, bytes := op.recvReq, op.env.bytes
	op.release()
	req.complete(bytes)
}

// release counts one payload callback and frees the op after both.
// recvReq stays set until then, so a second match of the same RTS
// panics. Callers copy out what they need first.
func (op *sendOp) release() {
	if op.pending--; op.pending == 0 {
		op.dst, op.req, op.recvReq = nil, nil, nil
		op.env.op = nil
		op.c.freeOps = append(op.c.freeOps, op)
	}
}
