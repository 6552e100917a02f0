package msg

import (
	"fmt"

	"northstar/internal/sim"
)

// Collective tags live in a reserved space above user tags. Each
// collective call on a rank uses a fresh epoch so consecutive collectives
// cannot cross-match. Programs must not mix wildcard-tag receives with
// concurrent collectives.
const collTagBase = 1 << 30

// collTag returns the tag for a round of the current collective epoch.
// The per-epoch stride bounds communicator size at 32768 ranks (the ring
// allreduce uses up to 2P-2 rounds).
func (r *Rank) collTag(round int) int {
	return collTagBase + r.collEpoch*(1<<16) + round
}

// combine charges the local combining cost of a reduction over bytes —
// one flop per 8-byte element, streaming two operands and one result —
// and returns its duration, which the caller must spend.
func (r *Rank) combine(bytes int64) sim.Time {
	return r.charge(float64(bytes)/8, 3*float64(bytes))
}

// Barrier blocks until every rank has entered it: a dissemination
// barrier of ceil(log2 P) rounds of pairwise signals.
func (r *Rank) Barrier() {
	r.collEpoch++
	p := r.Size()
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		to := (r.id + dist) % p
		from := (r.id - dist + p) % p
		r.SendRecv(to, r.collTag(round), 0, from, r.collTag(round))
	}
}

// Bcast broadcasts bytes from root to all ranks over a binomial tree and
// blocks until this rank has its copy.
func (r *Rank) Bcast(root int, bytes int64) {
	r.collEpoch++
	r.bcastTree(root, bytes)
}

// bcastTree is the binomial broadcast: receive from the parent, then
// forward to children in descending mask order.
func (r *Rank) bcastTree(root int, bytes int64) {
	p := r.Size()
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (r.id - mask + p) % p
			r.Recv(src, r.collTag(0))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			dst := (r.id + mask) % p
			r.Send(dst, r.collTag(0), bytes)
		}
		mask >>= 1
	}
}

// reduceTree is the binomial reduction toward rank 0.
func (r *Rank) reduceTree(bytes int64) {
	p := r.Size()
	for mask := 1; mask < p; mask <<= 1 {
		if r.id&mask != 0 {
			r.Send(r.id&^mask, r.collTag(0), bytes)
			return
		}
		if src := r.id | mask; src < p {
			r.Recv(src, r.collTag(0))
			if bytes > 0 {
				r.proc.Wait(r.combine(bytes))
			}
		}
	}
}

// Allreduce combines bytes across all ranks, leaving the result
// everywhere. Algorithms:
//
//   - RecursiveDoubling (default): log2 P exchange rounds of the full
//     buffer — latency-optimal for short vectors. Non-power-of-two sizes
//     fold the excess ranks in and out.
//   - Ring: reduce-scatter + allgather in 2(P-1) steps of bytes/P each —
//     bandwidth-optimal for long vectors.
//   - Binomial: reduce to 0 then broadcast (the naive baseline).
func (r *Rank) Allreduce(bytes int64) {
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	switch algo := r.comm.opts.Allreduce; algo {
	case RecursiveDoubling:
		r.allreduceRD(bytes)
	case Ring:
		chunk := bytes / int64(p)
		if chunk == 0 {
			chunk = 1
		}
		// Reduce-scatter phase.
		right := (r.id + 1) % p
		left := (r.id - 1 + p) % p
		for step := 0; step < p-1; step++ {
			r.exchange(right, r.collTag(step), chunk, left, r.collTag(step), r.combine(chunk))
		}
		// Allgather phase.
		for step := 0; step < p-1; step++ {
			r.SendRecv(right, r.collTag(p+step), chunk, left, r.collTag(p+step))
		}
	case Binomial:
		r.reduceTree(bytes)
		r.bcastTree(0, bytes)
	default:
		panic(fmt.Sprintf("msg: allreduce has no algorithm %q", algo))
	}
}

// allreduceRD is recursive doubling with the standard fold for
// non-power-of-two sizes: the first 2·rem ranks pair up so a power-of-two
// subset runs the doubling, then results fan back out.
func (r *Rank) allreduceRD(bytes int64) {
	p := r.Size()
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	newRank := -1
	switch {
	case r.id < 2*rem && r.id%2 == 0:
		// Fold my contribution into my odd neighbor; wait for the result.
		r.Send(r.id+1, r.collTag(60), bytes)
	case r.id < 2*rem:
		r.Recv(r.id-1, r.collTag(60))
		r.proc.Wait(r.combine(bytes))
		newRank = r.id / 2
	default:
		newRank = r.id - rem
	}
	if newRank >= 0 {
		realOf := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := realOf(newRank ^ mask)
			r.exchange(partner, r.collTag(61), bytes, partner, r.collTag(61), r.combine(bytes))
		}
	}
	// Fan results back to the folded ranks.
	switch {
	case r.id < 2*rem && r.id%2 == 0:
		r.Recv(r.id+1, r.collTag(62))
	case r.id < 2*rem:
		r.Send(r.id-1, r.collTag(62), bytes)
	}
}

// Alltoall performs a complete exchange: every rank sends bytes to every
// other rank (the communication core of a distributed transpose/FFT).
// Pairwise exchange in P-1 rounds: in round s, exchange with rank^s for
// power-of-two P, else send to (id+s) mod P and receive from (id-s) mod P.
func (r *Rank) Alltoall(bytes int64) {
	r.collEpoch++
	p := r.Size()
	pow2 := p&(p-1) == 0
	for step := 1; step < p; step++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = r.id ^ step
			recvFrom = sendTo
		} else {
			sendTo = (r.id + step) % p
			recvFrom = (r.id - step + p) % p
		}
		r.SendRecv(sendTo, r.collTag(step), bytes, recvFrom, r.collTag(step))
	}
}
