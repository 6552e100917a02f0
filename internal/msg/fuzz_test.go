package msg

import (
	"bytes"
	"testing"

	"northstar/internal/machine"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/tech"
)

// FuzzMsgMatching checks MPI-style matching on random message lists.
// The first byte picks 2–4 ranks of a LogGP machine; each following
// four bytes give one message's source, destination (self-sends
// included), tag (0–2), and whether it is rendezvous-sized and received
// by a fully wildcard receive. Every message has a unique size, so a
// receiver can tell which one it got. Each rank ISends its messages,
// posts its receives — exact (src, tag) ones first, then fully wildcard
// ones, which match under any arrival order — then calls WaitAll. The
// target checks that the run ends, that every message is received
// exactly once by its destination, that messages with one source and
// tag are matched in the order sent, and that a second run gives the
// same trace.
func FuzzMsgMatching(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 2, 2, 0, 0, 2, 0})                         // a big self-send, then a small one that must not overtake it
	f.Add([]byte{1, 0, 2, 1, 3, 1, 2, 1, 1, 2, 2, 2, 0, 0, 1, 1, 2}) // mixed, with wildcards
	f.Add([]byte{2, 0, 1, 0, 2, 1, 0, 0, 0, 2, 0, 0, 3, 3, 1, 2, 1, 0, 3, 1, 3, 0, 0, 1, 0, 2, 2, 3})
	n2002 := node.MustBuild(node.Conventional, tech.Default2002(), 2002)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		size := 2 + int(data[0])%3
		type fmsg struct {
			src, dst, tag int
			bytes         int64
			wild          bool
		}
		var msgs []fmsg
		bySize := map[int64]int{}
		for i := 1; i+3 < len(data) && len(msgs) < 48; i += 4 {
			m := fmsg{src: int(data[i]) % size, dst: int(data[i+1]) % size, tag: int(data[i+2]) % 3,
				bytes: int64(len(msgs)), wild: data[i+3]&1 != 0}
			if data[i+3]&2 != 0 {
				m.bytes += 16<<10 + 1 // just past the default EagerLimit
			}
			bySize[m.bytes] = len(msgs)
			msgs = append(msgs, m)
		}
		run := func() (string, [][]int) {
			m, err := machine.New(machine.Config{Nodes: size, Node: n2002, Fabric: network.Myrinet2000(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			got := make([][]int, size) // per rank: message index of each receive, in posted order
			_, err = Run(m, Options{Trace: &trace}, func(r *Rank) {
				var sends, recvs []*Request
				for _, m := range msgs {
					if m.src == r.ID() {
						sends = append(sends, r.ISend(m.dst, m.tag, m.bytes))
					}
				}
				for _, wild := range []bool{false, true} {
					for _, m := range msgs {
						if m.dst != r.ID() || m.wild != wild {
							continue
						}
						if wild {
							recvs = append(recvs, r.IRecv(AnySource, AnyTag))
						} else {
							recvs = append(recvs, r.IRecv(m.src, m.tag))
						}
					}
				}
				WaitAll(append(sends, recvs...)...)
				for _, req := range recvs {
					i, ok := bySize[req.bytes]
					if !ok || msgs[i].dst != r.ID() || msgs[i].src != req.from {
						t.Errorf("rank %d received %d bytes from %d: no such message", r.ID(), req.bytes, req.from)
						continue
					}
					got[r.ID()] = append(got[r.ID()], i)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return trace.String(), got
		}
		trace, got := run()
		seen := make([]bool, len(msgs))
		for rank, idx := range got {
			last := map[[2]int]int{} // (src, tag) -> latest message index matched
			for _, i := range idx {
				if seen[i] {
					t.Fatalf("message %d received twice", i)
				}
				seen[i] = true
				key := [2]int{msgs[i].src, msgs[i].tag}
				if j, ok := last[key]; ok && j > i {
					t.Fatalf("rank %d matched message %d after %d from the same source and tag", rank, i, j)
				}
				last[key] = i
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("message %d never received", i)
			}
		}
		if again, _ := run(); again != trace {
			t.Fatal("second run gave a different trace")
		}
	})
}
