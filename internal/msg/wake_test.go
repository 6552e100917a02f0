package msg

import (
	"math"
	"testing"

	"northstar/internal/sim"
)

// These tests count a run's kernel events to count rank wakes. On a
// LogGP machine the events are, per rank, its start and, per message,
// the fabric's callbacks: injected and delivered for an eager message;
// the RTS's delivery, the CTS's delivery and the payload's two for a
// rendezvous one. Every other event is a rank's wake.

// TestSendRecvWakesOncePerExchange: in a ring shift on LogGP, every
// rank's message is injected as its neighbour's is, and arrives a
// latency later, so each send completes while the receive is still
// pending. The rank still wakes once per exchange, not once per
// request.
func TestSendRecvWakesOncePerExchange(t *testing.T) {
	const rounds = 5
	for _, size := range []int{2, 7} {
		for _, c := range []struct {
			bytes  int64
			events uint64 // fabric events per message
		}{{1 << 10, 2}, {64 << 10, 4}} {
			m := gigE(t, size)
			_, err := Run(m, Options{}, func(r *Rank) {
				right, left := (r.ID()+1)%size, (r.ID()+size-1)%size
				for i := 0; i < rounds; i++ {
					if got := r.SendRecv(right, i, c.bytes, left, i); got != c.bytes {
						panic("exchange received the wrong message")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(size) * (1 + rounds*(c.events+1))
			if got := m.Kernel().Fired(); got != want {
				t.Errorf("%d ranks, %d-byte exchanges: %d events fired, want %d (one wake per exchange)", size, c.bytes, got, want)
			}
		}
	}
}

// TestAllreduceWakesOncePerRound: Allreduce(8) on 8 ranks is 3
// recursive-doubling rounds or 2·7 ring steps, each an exchange of one
// eager message per rank. A rank wakes once per round, its combine
// included.
func TestAllreduceWakesOncePerRound(t *testing.T) {
	const p = 8
	for _, c := range []struct {
		algo   Algo
		rounds uint64
	}{{RecursiveDoubling, 3}, {Ring, 2 * (p - 1)}} {
		m := gigE(t, p)
		if _, err := Run(m, Options{Allreduce: c.algo}, func(r *Rank) { r.Allreduce(8) }); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Kernel().Fired(), p*(1+c.rounds*3); got != want {
			t.Errorf("%s: %d events fired, want %d (one wake per round)", c.algo, got, want)
		}
	}
}

// TestExchangeOneSuspension: a self-exchange, and an exchange whose
// message already waits unexpected when the receive is posted, each
// suspend the rank once, with or without a combine. They leave the same
// end time and Stats bits as IRecv, Send and Wait, then Compute, on the
// same machine.
func TestExchangeOneSuspension(t *testing.T) {
	const bytes = 1 << 10
	for _, c := range []struct {
		name    string
		nodes   int
		peer    int
		sendTag int    // rank 0 receives tag 1
		events  uint64 // events but rank 0's wake from the exchange
	}{
		// rank 0's start and Sleep, and the local copy.
		{"self", 1, 0, 1, 3},
		// Both ranks' starts, rank 1's message and its wake after Send,
		// rank 0's Sleep, and rank 0's message.
		{"unexpected", 2, 1, 2, 8},
	} {
		for _, combine := range []bool{false, true} {
			m := gigE(t, c.nodes)
			run := func(exchange func(r *Rank)) (sim.Time, []Stats) {
				m.Reset()
				comm := NewComm(m, Options{})
				end, err := comm.Start(func(r *Rank) {
					if r.ID() == 1 {
						r.Send(0, 1, bytes)
						return
					}
					r.Sleep(sim.Millisecond) // rank 1's message arrives meanwhile
					exchange(r)
				})
				if err != nil {
					t.Fatal(err)
				}
				stats := make([]Stats, comm.Size())
				for i := range stats {
					stats[i] = comm.Rank(i).Stats
				}
				return end, stats
			}
			refEnd, refStats := run(func(r *Rank) {
				req := r.IRecv(c.peer, 1)
				r.Send(c.peer, c.sendTag, bytes)
				req.Wait()
				if combine {
					r.Compute(float64(bytes)/8, 3*float64(bytes))
				}
			})
			end, stats := run(func(r *Rank) {
				var d sim.Time
				if combine {
					d = r.combine(bytes)
				}
				if got := r.exchange(c.peer, c.sendTag, bytes, c.peer, 1, d); got != bytes {
					panic("exchange received the wrong message")
				}
			})
			if got, want := m.Kernel().Fired(), c.events+1; got != want {
				t.Errorf("%s, combine %v: %d events fired, want %d (one suspension)", c.name, combine, got, want)
			}
			if math.Float64bits(float64(end)) != math.Float64bits(float64(refEnd)) {
				t.Errorf("%s, combine %v: ended at %v, want %v", c.name, combine, end, refEnd)
			}
			for i := range stats {
				if statsBits(stats[i]) != statsBits(refStats[i]) {
					t.Errorf("%s, combine %v: rank %d stats %+v, want %+v", c.name, combine, i, stats[i], refStats[i])
				}
			}
		}
	}
}

// statsBits is s with every float field as its bits.
func statsBits(s Stats) [5]uint64 {
	return [5]uint64{uint64(s.BytesSent), uint64(s.MsgsSent), math.Float64bits(s.Flops),
		math.Float64bits(float64(s.ComputeTime)), math.Float64bits(float64(s.CommTime))}
}
