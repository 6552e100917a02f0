package msg

import (
	"fmt"
	"slices"

	"northstar/internal/sim"
)

// Rank is one SPMD process of a communicator. All methods must be called
// from the rank's own program function (they may suspend the underlying
// sim.Proc).
type Rank struct {
	comm     *Comm
	id       int
	proc     *sim.Proc
	finished bool

	// MPI-style matching state.
	posted     []*Request // posted receives, FIFO
	unexpected []envelope // arrived-but-unmatched messages, FIFO

	// sendReq and recvReq are the requests Send, Recv and SendRecv use.
	// Each of those waits before it returns, so the two are reused.
	sendReq, recvReq Request

	// While the rank is suspended, the request it waits on is marked
	// waiting. waitSince is when that request's part of the wait began,
	// waitThen is the request the wait passes to once it completes (nil
	// if none), and waitAfter is how long after its last request
	// completes the rank wakes.
	waitSince sim.Time
	waitThen  *Request
	waitAfter sim.Time

	// copies holds the local copies (self-sends) in flight, oldest
	// first from copyHead. A rank's copies run one after another, so
	// they complete, and are delivered, in send order; copyDone is when
	// the newest one completes. onCopied is the completion handler,
	// bound once.
	copies   []localCopy
	copyHead int
	copyDone sim.Time
	onCopied func()

	// collEpoch numbers collective calls; SPMD programs invoke
	// collectives in lockstep, so epochs agree across ranks and keep
	// consecutive collectives from cross-matching.
	collEpoch int

	// Stats accumulate over the run.
	Stats Stats
}

// Stats records a rank's activity.
type Stats struct {
	BytesSent   int64
	MsgsSent    int64
	Flops       float64
	ComputeTime sim.Time
	CommTime    sim.Time
}

type kindT int

const (
	kindEager kindT = iota
	kindRTS
)

// envelope is the wire-visible description of a message.
type envelope struct {
	src, tag int
	bytes    int64
	kind     kindT
	op       *sendOp // rendezvous only: the sender's handshake
}

// localCopy is one self-send in flight.
type localCopy struct {
	req *Request
	env envelope
}

// Request is a pending nonblocking operation. Wait blocks the rank until
// it completes.
type Request struct {
	rank    *Rank
	src     int // recv: source filter (AnySource allowed)
	tag     int // recv: tag filter (AnyTag allowed)
	done    bool
	bytes   int64
	from    int // recv: actual source once matched
	waiting bool
}

// ID returns the rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.comm.ranks) }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute advances the rank's clock by the roofline time of a local work
// phase: flops floating-point operations touching memBytes of memory.
func (r *Rank) Compute(flops, memBytes float64) { r.proc.Wait(r.charge(flops, memBytes)) }

// charge adds a local work phase to the rank's Stats and returns its
// roofline time, which the caller must spend: Compute waits it out, and
// a reduction round passes it to exchange.
func (r *Rank) charge(flops, memBytes float64) sim.Time {
	d := r.comm.mach.RankModel().ComputeTime(flops, memBytes)
	r.Stats.Flops += flops
	r.Stats.ComputeTime += d
	return d
}

// Sleep advances the rank's clock by a fixed duration (non-modeled local
// work).
func (r *Rank) Sleep(d sim.Time) { r.proc.Wait(d) }

// Send sends bytes to rank dst with the given tag and blocks until the
// message is locally complete: fully injected for eager messages, or
// payload injected after the rendezvous handshake for large ones. Tags
// must be non-negative (negative tags are reserved for collectives).
func (r *Rank) Send(dst, tag int, bytes int64) {
	r.sendReq = Request{rank: r}
	r.isend(&r.sendReq, dst, tag, bytes)
	r.sendReq.Wait()
}

// ISend starts a nonblocking send and returns its request.
func (r *Rank) ISend(dst, tag int, bytes int64) *Request {
	req := &Request{rank: r}
	r.isend(req, dst, tag, bytes)
	return req
}

// isend starts sending bytes to dst, completing req when the message is
// locally complete.
func (r *Rank) isend(req *Request, dst, tag int, bytes int64) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("msg: rank %d sending to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic("msg: negative message size")
	}
	r.Stats.BytesSent += bytes
	r.Stats.MsgsSent++
	c := r.comm
	env := envelope{src: r.id, tag: tag, bytes: bytes, kind: kindEager}

	if dst == r.id {
		// Self-send: a local memory copy, delivered through the normal
		// matching path once the copy completes. Copies queue behind the
		// rank's earlier ones, so they cannot overtake each other.
		c.trace(r.id, dst, tag, bytes, "local")
		k := c.mach.Kernel()
		at := k.Now()
		if r.copyHead < len(r.copies) {
			at = r.copyDone
		}
		at += c.mach.RankModel().ComputeTime(0, 2*float64(bytes))
		r.copyDone = at
		r.copies = append(r.copies, localCopy{req: req, env: env})
		k.At(at, r.onCopied)
		return
	}

	fab := c.mach.Fabric()
	if bytes <= c.opts.EagerLimit {
		c.trace(r.id, dst, tag, bytes, "eager")
		s := c.newEagerSend(req, c.ranks[dst], env)
		fab.Send(r.id, dst, bytes+ctrlBytes, s.onInjected, s.onDelivered)
		return
	}

	// Rendezvous: RTS -> (receiver matches) -> CTS -> payload.
	c.trace(r.id, dst, tag, bytes, "rendezvous")
	op := c.newSendOp(req, c.ranks[dst], env)
	fab.Send(r.id, dst, ctrlBytes, nil, op.onRTS)
}

// copied completes the oldest local copy and delivers its message.
func (r *Rank) copied() {
	lc := r.copies[r.copyHead]
	r.copies[r.copyHead] = localCopy{}
	if r.copyHead++; r.copyHead == len(r.copies) {
		r.copies, r.copyHead = r.copies[:0], 0
	}
	lc.req.complete(lc.env.bytes)
	r.deliver(lc.env)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// size. Use AnySource and/or AnyTag as wildcards. It returns the actual
// source rank alongside the byte count.
func (r *Rank) Recv(src, tag int) (from int, bytes int64) {
	req := r.post(&r.recvReq, src, tag)
	bytes = req.Wait()
	return req.from, bytes
}

// IRecv posts a nonblocking receive and returns its request.
func (r *Rank) IRecv(src, tag int) *Request {
	return r.post(new(Request), src, tag)
}

// post makes req a receive for (src, tag): it matches the oldest
// unexpected message that fits, or joins the posted queue.
func (r *Rank) post(req *Request, src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("msg: rank %d receiving from invalid rank %d", r.id, src))
	}
	*req = Request{rank: r, src: src, tag: tag}
	for i := range r.unexpected {
		if env := r.unexpected[i]; req.matches(&env) {
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			r.consume(req, env)
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// SendRecv posts the receive, starts the send, then waits for both —
// the deadlock-free exchange primitive ring and pairwise collectives
// are built from. It suspends the rank once, however the two complete,
// and returns the received byte count.
func (r *Rank) SendRecv(dst, sendTag int, bytes int64, src, recvTag int) int64 {
	return r.exchange(dst, sendTag, bytes, src, recvTag, 0)
}

// exchange is SendRecv followed by a local combine of length combine,
// which the caller has already charged: the rank wakes combine after
// its last request completes, so a reduction round is one suspension.
func (r *Rank) exchange(dst, sendTag int, bytes int64, src, recvTag int, combine sim.Time) int64 {
	recv := r.post(&r.recvReq, src, recvTag)
	r.sendReq = Request{rank: r}
	r.isend(&r.sendReq, dst, sendTag, bytes)
	// The send is still pending: a fabric completes it from an event
	// handler, and a local copy from the copy's own event.
	r.suspend(&r.sendReq, recv, combine)
	return recv.bytes
}

// matches reports whether envelope env satisfies receive request req.
func (req *Request) matches(env *envelope) bool {
	if req.src != AnySource && req.src != env.src {
		return false
	}
	if req.tag != AnyTag && req.tag != env.tag {
		return false
	}
	return true
}

// deliver handles a message arrival at this rank: match a posted receive
// or queue as unexpected.
func (r *Rank) deliver(env envelope) {
	for i, req := range r.posted {
		if req.matches(&env) {
			r.posted = slices.Delete(r.posted, i, i+1)
			r.consume(req, env)
			return
		}
	}
	r.unexpected = append(r.unexpected, env)
}

// consume completes a matched (request, envelope) pair. For eager
// envelopes the payload has already arrived; for RTS envelopes the
// receiver issues the CTS and completion happens at payload delivery.
func (r *Rank) consume(req *Request, env envelope) {
	req.from = env.src
	switch env.kind {
	case kindEager:
		req.complete(env.bytes)
	case kindRTS:
		if env.op == nil {
			panic(fmt.Sprintf("msg: RTS from rank %d (tag %d) arrived without its send op", env.src, env.tag))
		}
		env.op.matched(req)
	}
}

// complete marks the request done. If its rank waits on it, complete
// adds the wait so far to the rank's CommTime, then passes the wait to
// the rank's next request if that is still pending, or else wakes the
// rank waitAfter later.
func (req *Request) complete(bytes int64) {
	if req.done {
		panic("msg: request completed twice")
	}
	req.done = true
	req.bytes = bytes
	if !req.waiting {
		return
	}
	req.waiting = false
	r := req.rank
	now := r.Now()
	r.Stats.CommTime += now - r.waitSince
	if next := r.waitThen; next != nil && !next.done {
		next.waiting = true
		r.waitSince, r.waitThen = now, nil
		return
	}
	r.proc.ResumeAfter(r.waitAfter)
}

// Wait blocks the rank until the request completes and returns the byte
// count (for receives, the received size).
func (req *Request) Wait() int64 {
	if !req.done {
		req.rank.suspend(req, nil, 0)
	}
	return req.bytes
}

// suspend parks the rank until req completes, then until then completes
// if then is non-nil, then for after more. Request.complete ends each
// part of the wait, so the rank is woken once.
func (r *Rank) suspend(req, then *Request, after sim.Time) {
	req.waiting = true
	r.waitSince, r.waitThen, r.waitAfter = r.Now(), then, after
	r.proc.Suspend()
}

// WaitAll waits for every request in order.
func WaitAll(reqs ...*Request) {
	for _, req := range reqs {
		req.Wait()
	}
}
