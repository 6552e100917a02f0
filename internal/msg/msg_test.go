package msg

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"northstar/internal/machine"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/sim"
	"northstar/internal/tech"
)

func testMachine(t testing.TB, nodes int, preset network.Preset) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{
		Nodes:  nodes,
		Node:   node.MustBuild(node.Conventional, tech.Default2002(), 2002),
		Fabric: preset,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func gigE(t testing.TB, nodes int) *machine.Machine {
	return testMachine(t, nodes, network.GigabitEthernet())
}

func TestPingPong(t *testing.T) {
	m := gigE(t, 2)
	const bytes = 1024
	var rtt sim.Time
	end, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			start := r.Now()
			r.Send(1, 7, bytes)
			r.Recv(1, 7)
			rtt = r.Now() - start
		} else {
			r.Recv(0, 7)
			r.Send(0, 7, bytes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 || rtt <= 0 {
		t.Fatalf("end=%v rtt=%v", end, rtt)
	}
	// RTT should be about twice the one-way LogGP time (eager path).
	p := network.GigabitEthernet()
	oneWay := 2*p.Overhead + sim.Time(bytes+ctrlBytes)*p.ByteTime + p.Latency
	if rtt < oneWay || rtt > 4*oneWay {
		t.Errorf("rtt = %v, expected within [%v, %v]", rtt, oneWay, 4*oneWay)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	m := gigE(t, 2)
	var got []int64
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			for i := int64(1); i <= 5; i++ {
				r.Send(1, 3, i*100)
			}
		} else {
			for i := 0; i < 5; i++ {
				_, n := r.Recv(0, 3)
				got = append(got, n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		if n != int64(i+1)*100 {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestTagMatching(t *testing.T) {
	m := gigE(t, 2)
	var first int64
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, 111)
			r.Send(1, 9, 222)
		} else {
			// Receive tag 9 first even though tag 5 arrives first.
			_, first = r.Recv(0, 9)
			r.Recv(0, 5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 222 {
		t.Fatalf("tag-9 recv got %d bytes, want 222", first)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	m := gigE(t, 4)
	var sources []int
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i < 4; i++ {
				from, _ := r.Recv(AnySource, AnyTag)
				sources = append(sources, from)
			}
		} else {
			r.Sleep(sim.Time(r.ID()) * sim.Millisecond)
			r.Send(0, r.ID(), 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Staggered sends arrive in rank order.
	for i, s := range sources {
		if s != i+1 {
			t.Fatalf("sources = %v, want [1 2 3]", sources)
		}
	}
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	m := gigE(t, 2)
	big := int64(1 << 20)
	const recvDelay = 50 * sim.Millisecond
	var sendDone sim.Time
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, big)
			sendDone = r.Now()
		} else {
			r.Sleep(recvDelay)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < recvDelay {
		t.Errorf("rendezvous send completed at %v, before receiver posted at %v", sendDone, recvDelay)
	}
}

func TestEagerDoesNotWaitForReceiver(t *testing.T) {
	m := gigE(t, 2)
	const recvDelay = 50 * sim.Millisecond
	var sendDone sim.Time
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 512) // well under the eager limit
			sendDone = r.Now()
		} else {
			r.Sleep(recvDelay)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone >= recvDelay {
		t.Errorf("eager send blocked until %v; should complete locally", sendDone)
	}
}

func TestSelfSend(t *testing.T) {
	m := gigE(t, 1)
	var got int64
	_, err := Run(m, Options{}, func(r *Rank) {
		req := r.IRecv(0, 4)
		r.Send(0, 4, 777)
		got = req.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Fatalf("self-send received %d, want 777", got)
	}
}

func TestSendRecvExchange(t *testing.T) {
	m := gigE(t, 2)
	var got [2]int64
	_, err := Run(m, Options{}, func(r *Rank) {
		partner := 1 - r.ID()
		got[r.ID()] = r.SendRecv(partner, 2, int64(100+r.ID()), partner, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 101 || got[1] != 100 {
		t.Fatalf("exchange got %v", got)
	}
}

func TestSendRecvLargeNoDeadlock(t *testing.T) {
	m := gigE(t, 2)
	big := int64(4 << 20) // rendezvous path both directions
	_, err := Run(m, Options{}, func(r *Rank) {
		partner := 1 - r.ID()
		r.SendRecv(partner, 2, big, partner, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitAll(t *testing.T) {
	m := gigE(t, 2)
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			reqs := []*Request{
				r.ISend(1, 0, 100),
				r.ISend(1, 1, 200),
				r.ISend(1, 2, 300),
			}
			WaitAll(reqs...)
		} else {
			a := r.IRecv(0, 2)
			b := r.IRecv(0, 1)
			c := r.IRecv(0, 0)
			WaitAll(a, b, c)
			if a.bytes != 300 || b.bytes != 200 || c.bytes != 100 {
				panic("wrong sizes")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := gigE(t, 2)
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 0) // never sent
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if err != nil && !strings.Contains(err.Error(), "[0]") {
		t.Errorf("deadlock error should name stuck rank 0: %v", err)
	}
}

func TestRankPanicReported(t *testing.T) {
	m := gigE(t, 2)
	_, err := Run(m, Options{}, func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
		r.Recv(1, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked") {
		t.Fatalf("err = %v, want rank panic", err)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := gigE(t, 1)
	var elapsed sim.Time
	_, err := Run(m, Options{}, func(r *Rank) {
		start := r.Now()
		r.Compute(1e9, 0) // 1 Gflop, compute-bound
		elapsed = r.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	model := m.NodeModel()
	want := model.ComputeTime(1e9, 0)
	if elapsed != want {
		t.Fatalf("compute took %v, want %v", elapsed, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := gigE(t, 2)
	c := NewComm(m, Options{})
	_, err := c.Start(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1000)
			r.Compute(1e8, 0)
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s0 := c.Rank(0).Stats
	if s0.BytesSent != 1000 || s0.MsgsSent != 1 {
		t.Errorf("rank 0 stats: %+v", s0)
	}
	if s0.ComputeTime <= 0 {
		t.Errorf("rank 0 compute time not recorded: %+v", s0)
	}
}

func collectiveMachines(t *testing.T) map[string]int {
	return map[string]int{"pow2": 8, "odd": 7, "pair": 2, "one": 1, "big": 16}
}

func TestBarrierAllAlgorithms(t *testing.T) {
	for name, p := range collectiveMachines(t) {
		m := gigE(t, p)
		var after []sim.Time
		_, err := Run(m, Options{}, func(r *Rank) {
			// Stagger entries; the barrier must hold everyone until the
			// last arrives.
			r.Sleep(sim.Time(r.ID()) * sim.Millisecond)
			r.Barrier()
			after = append(after, r.Now())
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lastEntry := sim.Time(p-1) * sim.Millisecond
		for _, tt := range after {
			if tt < lastEntry {
				t.Errorf("%s: a rank left the barrier at %v, before last entry %v", name, tt, lastEntry)
			}
		}
	}
}

func TestBcastAlgorithms(t *testing.T) {
	for name, p := range collectiveMachines(t) {
		for _, root := range []int{0, p - 1} {
			m := gigE(t, p)
			_, err := Run(m, Options{}, func(r *Rank) {
				r.Bcast(root, 4096)
			})
			if err != nil {
				t.Fatalf("%s root=%d: %v", name, root, err)
			}
		}
	}
}

func TestAllreduceAlgorithms(t *testing.T) {
	for name, p := range collectiveMachines(t) {
		for _, algo := range []Algo{RecursiveDoubling, Ring, Binomial} {
			m := gigE(t, p)
			_, err := Run(m, Options{Allreduce: algo}, func(r *Rank) {
				r.Allreduce(8192)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
		}
	}
}

// TestAllreduceDefaultIsRecursiveDoubling pins what an empty
// Options.Allreduce runs: every rank leaves the allreduce, and the run
// ends, at the same float bits as when RecursiveDoubling is named.
func TestAllreduceDefaultIsRecursiveDoubling(t *testing.T) {
	for _, p := range []int{1, 2, 7, 8, 16} {
		var times [2][]uint64
		for i, opts := range []Options{{}, {Allreduce: RecursiveDoubling}} {
			left := make([]uint64, p)
			end, err := Run(gigE(t, p), opts, func(r *Rank) {
				r.Allreduce(8192)
				left[r.ID()] = math.Float64bits(float64(r.Now()))
			})
			if err != nil {
				t.Fatalf("P=%d %+v: %v", p, opts, err)
			}
			times[i] = append(left, math.Float64bits(float64(end)))
		}
		if !slices.Equal(times[0], times[1]) {
			t.Fatalf("P=%d: default allreduce times %x, recursive doubling %x", p, times[0], times[1])
		}
	}
}

// TestAllreduceUnknownAlgorithm: an algorithm Allreduce does not know
// fails the run with an error naming it, on every rank count that
// exchanges anything. At P = 1 Allreduce returns before it reads the
// algorithm.
func TestAllreduceUnknownAlgorithm(t *testing.T) {
	opts := Options{Allreduce: "bogus"}
	for _, p := range []int{2, 7, 8} {
		_, err := Run(gigE(t, p), opts, func(r *Rank) { r.Allreduce(64) })
		if err == nil || !strings.Contains(err.Error(), `allreduce has no algorithm "bogus"`) {
			t.Errorf("P=%d: err = %v, want the unknown algorithm named", p, err)
		}
	}
	if _, err := Run(gigE(t, 1), opts, func(r *Rank) { r.Allreduce(64) }); err != nil {
		t.Errorf("P=1: %v", err)
	}
}

func TestRingAllreduceBeatsRDForLongVectors(t *testing.T) {
	// Bandwidth-optimal ring should win for long vectors on a
	// bandwidth-limited fabric.
	const p = 8
	const bytes = 8 << 20
	times := map[Algo]sim.Time{}
	for _, algo := range []Algo{RecursiveDoubling, Ring} {
		m := gigE(t, p)
		end, err := Run(m, Options{Allreduce: algo}, func(r *Rank) {
			r.Allreduce(bytes)
		})
		if err != nil {
			t.Fatal(err)
		}
		times[algo] = end
	}
	if times[Ring] >= times[RecursiveDoubling] {
		t.Errorf("ring allreduce %v not faster than recursive doubling %v for %d bytes",
			times[Ring], times[RecursiveDoubling], bytes)
	}
}

func TestRDAllreduceBeatsRingForShortVectors(t *testing.T) {
	const p = 16
	const bytes = 8
	times := map[Algo]sim.Time{}
	for _, algo := range []Algo{RecursiveDoubling, Ring} {
		m := gigE(t, p)
		end, err := Run(m, Options{Allreduce: algo}, func(r *Rank) {
			r.Allreduce(bytes)
		})
		if err != nil {
			t.Fatal(err)
		}
		times[algo] = end
	}
	if times[RecursiveDoubling] >= times[Ring] {
		t.Errorf("RD allreduce %v not faster than ring %v for %d bytes",
			times[RecursiveDoubling], times[Ring], bytes)
	}
}

func TestAlltoallCompletes(t *testing.T) {
	for name, p := range collectiveMachines(t) {
		m := gigE(t, p)
		_, err := Run(m, Options{}, func(r *Rank) {
			r.Alltoall(2048)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConsecutiveCollectivesDontCrossMatch(t *testing.T) {
	m := gigE(t, 8)
	_, err := Run(m, Options{}, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Allreduce(512)
			r.Barrier()
			r.Bcast(i%8, 256)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierScalesLogarithmically(t *testing.T) {
	// Dissemination barrier cost should grow ~log2 P: going 4 -> 64 ranks
	// (x16) should cost ~3x, certainly under 6x.
	time4 := barrierTime(t, 4)
	time64 := barrierTime(t, 64)
	if ratio := float64(time64) / float64(time4); ratio > 6 {
		t.Errorf("barrier 64/4 rank time ratio = %.1f, want logarithmic (< 6)", ratio)
	}
}

func barrierTime(t *testing.T, p int) sim.Time {
	m := gigE(t, p)
	end, err := Run(m, Options{}, func(r *Rank) { r.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestRunDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := gigE(t, 8)
		end, err := Run(m, Options{}, func(r *Rank) {
			r.Allreduce(4096)
			r.Alltoall(1024)
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// Property: any random pattern of matched sends/receives (pairing every
// send i->j with a recv j<-i) completes without deadlock, and conserves
// message counts.
func TestRandomTrafficConservationProperty(t *testing.T) {
	prop := func(seed int64, rawP uint8, rawMsgs uint8) bool {
		p := int(rawP%6) + 2
		nmsgs := int(rawMsgs%20) + 1
		m, err := machine.New(machine.Config{
			Nodes:  p,
			Node:   node.MustBuild(node.Conventional, tech.Default2002(), 2002),
			Fabric: network.Myrinet2000(),
			Seed:   seed,
		})
		if err != nil {
			return false
		}
		// Deterministic pseudo-random traffic plan derived from seed.
		x := uint64(seed)*2654435761 + 12345
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		type msgPlan struct{ src, dst, bytes int }
		var plan []msgPlan
		for i := 0; i < nmsgs; i++ {
			s := next(p)
			d := next(p)
			if s == d {
				d = (d + 1) % p
			}
			plan = append(plan, msgPlan{s, d, next(1 << 18)})
		}
		received := 0
		_, err = Run(m, Options{}, func(r *Rank) {
			var reqs []*Request
			for _, mp := range plan {
				if mp.dst == r.ID() {
					reqs = append(reqs, r.IRecv(mp.src, AnyTag))
				}
			}
			for _, mp := range plan {
				if mp.src == r.ID() {
					r.Send(mp.dst, 0, int64(mp.bytes))
				}
			}
			for _, req := range reqs {
				req.Wait()
				received++
			}
		})
		return err == nil && received == nmsgs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousMisusePanics pins the protocol-bug panics of the
// rendezvous handshake: an RTS that arrives without its send op, and an
// RTS matched twice.
func TestRendezvousMisusePanics(t *testing.T) {
	c := NewComm(gigE(t, 2), Options{})
	sender, receiver := c.Rank(0), c.Rank(1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"RTS without op", func() {
			receiver.IRecv(0, 3)
			receiver.deliver(envelope{src: 0, tag: 3, bytes: 1 << 20, kind: kindRTS})
		}},
		{"RTS matched twice", func() {
			op := c.newSendOp(&Request{rank: sender}, receiver, envelope{src: 0, tag: 3, bytes: 1 << 20})
			op.matched(&Request{rank: receiver})
			op.matched(&Request{rank: receiver})
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestMessageTracing(t *testing.T) {
	m := gigE(t, 2)
	var buf bytes.Buffer
	_, err := Run(m, Options{Trace: &buf}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 100)   // eager
			r.Send(1, 8, 1<<20) // rendezvous
			r.Send(0, 9, 50)    // local
			r.Recv(0, 9)
		} else {
			r.Recv(0, 7)
			r.Recv(0, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time_s,src,dst,tag,bytes,protocol" {
		t.Fatalf("header = %q", lines[0])
	}
	var eager, rendezvous, local int
	for _, l := range lines[1:] {
		switch {
		case strings.HasSuffix(l, ",eager"):
			eager++
		case strings.HasSuffix(l, ",rendezvous"):
			rendezvous++
		case strings.HasSuffix(l, ",local"):
			local++
		}
	}
	if eager != 1 || rendezvous != 1 || local != 1 {
		t.Fatalf("trace protocols: eager=%d rendezvous=%d local=%d\n%s", eager, rendezvous, local, out)
	}
}

func TestCollectivesOverWormholeFabric(t *testing.T) {
	// End-to-end: the messaging layer (eager + rendezvous + collectives)
	// over the credit-flow-controlled wormhole fabric must complete and
	// stay deterministic.
	run := func() sim.Time {
		m, err := machine.New(machine.Config{
			Nodes:    16,
			Node:     node.MustBuild(node.Conventional, tech.Default2002(), 2002),
			Fabric:   network.InfiniBand4X(),
			Wormhole: true,
			Topology: machine.TopoFatTree,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		end, err := Run(m, Options{}, func(r *Rank) {
			r.Alltoall(64 << 10) // rendezvous-sized exchange under contention
			r.Allreduce(8)
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("wormhole msg run nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}
