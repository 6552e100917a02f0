package msg

import "fmt"

// Collective tags live in a reserved space above user tags. Each
// collective call on a rank uses a fresh epoch so consecutive collectives
// cannot cross-match. Programs must not mix wildcard-tag receives with
// concurrent collectives.
const collTagBase = 1 << 30

// collTag returns the tag for a round of the current collective epoch.
// The per-epoch stride bounds communicator size at 32768 ranks (ring
// algorithms use up to 2P-2 rounds).
func (r *Rank) collTag(round int) int {
	return collTagBase + r.collEpoch*(1<<16) + round
}

// reduceCost charges the local combining cost of a reduction over bytes:
// one flop per 8-byte element, streaming two operands and one result.
func (r *Rank) reduceCost(bytes int64) {
	r.Compute(float64(bytes)/8, 3*float64(bytes))
}

// Barrier blocks until every rank has entered it. Algorithms:
// Dissemination (default): ceil(log2 P) rounds of pairwise signals.
// Binomial: tree gather to rank 0 then tree release.
func (r *Rank) Barrier() {
	algo := r.comm.opts.Barrier
	if algo == Auto {
		algo = Dissemination
	}
	r.collEpoch++
	switch algo {
	case Dissemination:
		p := r.Size()
		if p == 1 {
			return
		}
		for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
			to := (r.id + dist) % p
			from := (r.id - dist + p) % p
			r.SendRecv(to, r.collTag(round), 0, from, r.collTag(round))
		}
	case Binomial:
		r.reduceTree(0, 0, false)
		r.bcastTree(0, 0)
	default:
		panic(fmt.Sprintf("msg: barrier has no algorithm %q", algo))
	}
}

// Bcast broadcasts bytes from root to all ranks and blocks until this
// rank has its copy. Algorithms: Binomial tree (default); Linear (root
// sends to each rank in turn — the naive baseline).
func (r *Rank) Bcast(root int, bytes int64) {
	algo := r.comm.opts.Bcast
	if algo == Auto {
		algo = Binomial
	}
	r.collEpoch++
	if r.Size() == 1 {
		return
	}
	switch algo {
	case Binomial:
		r.bcastTree(root, bytes)
	case Linear:
		if r.id == root {
			for i := 0; i < r.Size(); i++ {
				if i != root {
					r.Send(i, r.collTag(0), bytes)
				}
			}
		} else {
			r.Recv(root, r.collTag(0))
		}
	default:
		panic(fmt.Sprintf("msg: bcast has no algorithm %q", algo))
	}
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

// Reduce combines bytes from all ranks onto root (commutative reduction)
// and blocks until this rank's part is done. Algorithm: binomial tree
// (default); Linear (everyone sends to root).
func (r *Rank) Reduce(root int, bytes int64) {
	algo := r.comm.opts.Reduce
	if algo == Auto {
		algo = Binomial
	}
	r.collEpoch++
	if r.Size() == 1 {
		return
	}
	switch algo {
	case Binomial:
		r.reduceTree(root, bytes, true)
	case Linear:
		if r.id == root {
			for i := 0; i < r.Size(); i++ {
				if i != root {
					r.Recv(AnySource, r.collTag(0))
					r.reduceCost(bytes)
				}
			}
		} else {
			r.Send(root, r.collTag(0), bytes)
		}
	default:
		panic(fmt.Sprintf("msg: reduce has no algorithm %q", algo))
	}
}

// reduceTree is the binomial reduction toward root.
func (r *Rank) reduceTree(root int, bytes int64, charge bool) {
	p := r.Size()
	vrank := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask == 0 {
			srcV := vrank | mask
			if srcV < p {
				src := (srcV + root) % p
				r.Recv(src, r.collTag(0))
				if charge && bytes > 0 {
					r.reduceCost(bytes)
				}
			}
		} else {
			dst := ((vrank &^ mask) + root) % p
			r.Send(dst, r.collTag(0), bytes)
			return
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
	algo := r.comm.opts.Allreduce
	if algo == Auto {
		algo = RecursiveDoubling
	}
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	switch algo {
	case RecursiveDoubling:
		r.allreduceRD(bytes)
	case SMPAware:
		r.allreduceSMP(bytes)
	case Ring:
		chunk := bytes / int64(p)
		if chunk == 0 {
			chunk = 1
		}
		// Reduce-scatter phase.
		right := (r.id + 1) % p
		left := (r.id - 1 + p) % p
		for step := 0; step < p-1; step++ {
			r.SendRecv(right, r.collTag(step), chunk, left, r.collTag(step))
			r.reduceCost(chunk)
		}
		// Allgather phase.
		for step := 0; step < p-1; step++ {
			r.SendRecv(right, r.collTag(p+step), chunk, left, r.collTag(p+step))
		}
	case Binomial:
		r.reduceTree(0, bytes, true)
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
		r.reduceCost(bytes)
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
			r.SendRecv(partner, r.collTag(61), bytes, partner, r.collTag(61))
			r.reduceCost(bytes)
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

// Allgather gathers bytes from every rank to every rank (each rank
// contributes bytes; each ends with P·bytes). Algorithms: Ring
// (default, bandwidth-optimal) and RecursiveDoubling (power-of-two only;
// falls back to Ring otherwise).
func (r *Rank) Allgather(bytes int64) {
	algo := r.comm.opts.Allgather
	if algo == Auto {
		algo = Ring
	}
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	if algo == RecursiveDoubling && p&(p-1) != 0 {
		algo = Ring
	}
	switch algo {
	case Ring:
		right := (r.id + 1) % p
		left := (r.id - 1 + p) % p
		for step := 0; step < p-1; step++ {
			r.SendRecv(right, r.collTag(step), bytes, left, r.collTag(step))
		}
	case RecursiveDoubling:
		// Round k exchanges 2^k·bytes with the partner across bit k.
		size := bytes
		for mask := 1; mask < p; mask <<= 1 {
			partner := r.id ^ mask
			r.SendRecv(partner, r.collTag(63), size, partner, r.collTag(63))
			size *= 2
		}
	default:
		panic(fmt.Sprintf("msg: allgather has no algorithm %q", algo))
	}
}

// Alltoall performs a complete exchange: every rank sends bytes to every
// other rank (the communication core of a distributed transpose/FFT).
// Algorithm: Pairwise (default): P-1 rounds; in round s, exchange with
// rank^s for power-of-two P, else with (id+s) mod P / (id-s) mod P.
func (r *Rank) Alltoall(bytes int64) {
	algo := r.comm.opts.Alltoall
	if algo == Auto {
		algo = Pairwise
	}
	r.collEpoch++
	p := r.Size()
	if p == 1 {
		return
	}
	switch algo {
	case Pairwise:
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
	default:
		panic(fmt.Sprintf("msg: alltoall has no algorithm %q", algo))
	}
}
