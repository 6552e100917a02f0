package msg

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"northstar/internal/machine"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/tech"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from live output")

// timelineMsg is one planned point-to-point message of the pinned
// program. Tags are unique across the whole plan, so a receive naming
// the tag matches exactly one message.
type timelineMsg struct {
	src, dst, tag int
	bytes         int64
	recv          int // 0 exact, 1 AnySource, 2 AnyTag, 3 AnySource+AnyTag
	blocking      bool
}

// timelinePlan draws a seeded communication plan for size ranks:
// rounds of point-to-point traffic separated by collectives, then a
// last round whose receives may be fully wildcard. Receive kinds are
// chosen so that every arrival order matches: within a round a rank
// posts the receives that name a tag first, then (src, AnyTag) ones,
// then fully wildcard ones, and fully wildcard receives appear only in
// the last round, after which nothing else is sent.
func timelinePlan(seed int64, size, rounds int) [][]timelineMsg {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]timelineMsg, rounds)
	tag := 0
	for round := range plan {
		last := round == rounds-1
		for i := 0; i < 2*size; i++ {
			m := timelineMsg{src: rng.Intn(size), dst: rng.Intn(size), tag: tag}
			tag++
			if rng.Intn(3) == 0 {
				m.bytes = 16<<10 + 1 + rng.Int63n(48<<10) // rendezvous
			} else {
				m.bytes = rng.Int63n(8 << 10) // eager
			}
			kinds := 3
			if last {
				kinds = 4
			}
			m.recv = rng.Intn(kinds)
			m.blocking = m.src == m.dst || rng.Intn(2) == 0
			plan[round] = append(plan[round], m)
		}
	}
	return plan
}

// timelineProgram runs plan on every rank: per round, post the rank's
// receives in matching-safe order, send its messages (blocking or not;
// self-sends blocking), wait for everything, then run one collective.
func timelineProgram(plan [][]timelineMsg) func(r *Rank) {
	return func(r *Rank) {
		for round, msgs := range plan {
			var reqs []*Request
			for pass := 0; pass < 3; pass++ {
				for _, m := range msgs {
					if m.dst != r.ID() {
						continue
					}
					src, tag := m.src, m.tag
					switch {
					case pass == 0 && m.recv == 0:
					case pass == 0 && m.recv == 1:
						src = AnySource
					case pass == 1 && m.recv == 2:
						tag = AnyTag
					case pass == 2 && m.recv == 3:
						src, tag = AnySource, AnyTag
					default:
						continue
					}
					reqs = append(reqs, r.IRecv(src, tag))
				}
			}
			for _, m := range msgs {
				if m.src != r.ID() {
					continue
				}
				if m.blocking {
					r.Send(m.dst, m.tag, m.bytes)
				} else {
					reqs = append(reqs, r.ISend(m.dst, m.tag, m.bytes))
				}
			}
			r.Compute(1e5*float64(r.ID()+1), 1e5)
			WaitAll(reqs...)
			switch round % 4 {
			case 0:
				r.Barrier()
			case 1:
				r.Allreduce(int64(8 << (4 * (round % 3))))
			case 2:
				r.Bcast(round%r.Size(), 32<<10)
			case 3:
				r.Alltoall(2 << 10)
			}
		}
	}
}

// TestTimelinePinned runs a seeded SPMD program that mixes eager and
// rendezvous sends, blocking self-sends, AnySource and AnyTag receives,
// IRecv with WaitAll, and Barrier, Allreduce, Bcast and Alltoall, on
// four small machines: LogGP, packet-level on a 3-D torus, two ranks
// per node, and a wormhole fat tree. It pins the message trace, the end
// time's float bits and every rank's Stats, so any change to the order
// or time at which the messaging layer schedules events shows here.
// Regenerate with go test ./internal/msg -run TestTimelinePinned -update.
func TestTimelinePinned(t *testing.T) {
	n2002 := node.MustBuild(node.Conventional, tech.Default2002(), 2002)
	for _, c := range []struct {
		name string
		cfg  machine.Config
	}{
		{"loggp", machine.Config{Nodes: 8, Node: n2002, Fabric: network.Myrinet2000(), Seed: 1}},
		{"packet_torus3d", machine.Config{Nodes: 8, Node: n2002, Fabric: network.GigabitEthernet(),
			PacketLevel: true, Topology: machine.TopoTorus3D, Seed: 1}},
		{"smp2", machine.Config{Nodes: 4, Node: n2002, Fabric: network.InfiniBand4X(), RanksPerNode: 2, Seed: 1}},
		{"wormhole_fattree", machine.Config{Nodes: 8, Node: n2002, Fabric: network.InfiniBand4X(),
			Wormhole: true, BufferPackets: 2, Topology: machine.TopoFatTree, Seed: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			comm := NewComm(m, Options{Trace: &out})
			end, err := comm.Start(timelineProgram(timelinePlan(17, m.Ranks(), 5)))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "end %016x\n", math.Float64bits(float64(end)))
			for i := 0; i < comm.Size(); i++ {
				s := comm.Rank(i).Stats
				fmt.Fprintf(&out, "rank %d sent=%d msgs=%d flops=%016x compute=%016x comm=%016x\n",
					i, s.BytesSent, s.MsgsSent, math.Float64bits(s.Flops),
					math.Float64bits(float64(s.ComputeTime)), math.Float64bits(float64(s.CommTime)))
			}
			checkGolden(t, filepath.Join("testdata", "timeline_"+c.name+".golden"), out.Bytes())
		})
	}
}

// checkGolden compares got against the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
