package network

import (
	"math"
	"math/rand"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

// Every fabric's Reset must restore the just-built state exactly: the
// same traffic replayed after a Reset produces bit-identical delivery
// times and counters as on the fresh fabric, with the counters zeroed
// in between. This is the contract machine.Reset (E7's sweep reuse)
// depends on.
func TestFabricResetBitIdentical(t *testing.T) {
	builders := []struct {
		name  string
		build func(k *sim.Kernel) Fabric
	}{
		{"loggp", func(k *sim.Kernel) Fabric { return NewLogGP(k, Myrinet2000(), 8) }},
		{"circuit", func(k *sim.Kernel) Fabric { return NewCircuit(k, OpticalCircuit(), 8) }},
		{"packet", func(k *sim.Kernel) Fabric {
			return NewPacketNet(k, InfiniBand4X(), topology.FatTree(4, 2))
		}},
		{"wormhole", func(k *sim.Kernel) Fabric {
			return NewWormholeNet(k, Myrinet2000(), topology.Crossbar(8), 2)
		}},
		{"hierarchical", func(k *sim.Kernel) Fabric {
			inter := NewLogGP(k, GigabitEthernet(), 4)
			h, err := NewHierarchical(NewLogGP(k, SharedMemory(1e9), 8), inter, 2)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
	}

	drive := func(f Fabric) []sim.Time {
		k := f.Kernel()
		var deliveries []sim.Time
		n := f.NumEndpoints()
		for i := 0; i < n; i++ {
			src, dst := i, (i+3)%n
			if src == dst {
				continue
			}
			f.Send(src, dst, int64(1000*(i+1)), nil, func() {
				deliveries = append(deliveries, k.Now())
			})
		}
		k.Run()
		return deliveries
	}

	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			k := sim.New(5)
			f := b.build(k)
			if f.Name() == "" {
				t.Fatalf("empty fabric name")
			}
			if f.Kernel() != k {
				t.Fatalf("fabric kernel is not the construction kernel")
			}
			first := drive(f)
			if len(first) == 0 {
				t.Fatalf("no deliveries on fresh fabric")
			}

			k.Reset()
			f.Reset()
			second := drive(f)

			kf := sim.New(5)
			fresh := drive(b.build(kf))

			if len(first) != len(second) || len(first) != len(fresh) {
				t.Fatalf("delivery counts diverge: %d fresh-run, %d reset, %d rebuilt",
					len(first), len(second), len(fresh))
			}
			for i := range first {
				if first[i] != second[i] || first[i] != fresh[i] {
					t.Fatalf("delivery %d diverges: first %v, after reset %v, rebuilt %v",
						i, first[i], second[i], fresh[i])
				}
			}
		})
	}
}

// TestWormholeResetReplays: under congestion — a seeded incast of 1–8
// flows onto one hotspot plus a victim flow between two other
// endpoints — a wormhole fat tree reused through Reset gives
// bit-identical delivery times and Stalls to a freshly built kernel and
// fabric, at buffer depths 2 and 8, whatever ran on it before. X7
// reuses one fabric per depth on this contract.
func TestWormholeResetReplays(t *testing.T) {
	type result struct {
		delivered []uint64 // math.Float64bits of each message's delivery time
		stalls    int64
	}
	run := func(k *sim.Kernel, f *WormholeNet, seed int64) result {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(16)
		hot, victim, from := perm[0], perm[1], perm[2]
		var res result
		send := func(src, dst int, bytes int64) {
			i := len(res.delivered)
			res.delivered = append(res.delivered, 0)
			f.Send(src, dst, bytes, nil, func() { res.delivered[i] = math.Float64bits(float64(k.Now())) })
		}
		for _, src := range perm[3 : 4+rng.Intn(8)] {
			send(src, hot, int64(64<<10+rng.Intn(1<<20)))
		}
		send(from, victim, 256<<10)
		k.Run()
		res.stalls = f.Stalls
		return res
	}
	for _, depth := range []int{2, 8} {
		k := sim.New(1)
		reused := NewWormholeNet(k, InfiniBand4X(), topology.FatTree(4, 2), depth)
		var stalls int64
		for seed := int64(1); seed <= 6; seed++ {
			k.Reset()
			reused.Reset()
			got := run(k, reused, seed)
			kf := sim.New(1)
			want := run(kf, NewWormholeNet(kf, InfiniBand4X(), topology.FatTree(4, 2), depth), seed)
			if got.stalls != want.stalls || len(got.delivered) != len(want.delivered) {
				t.Fatalf("depth %d seed %d: reset fabric stalled %d times over %d messages, fresh %d over %d",
					depth, seed, got.stalls, len(got.delivered), want.stalls, len(want.delivered))
			}
			for i := range got.delivered {
				if got.delivered[i] != want.delivered[i] || got.delivered[i] == 0 {
					t.Fatalf("depth %d seed %d: message %d delivered at %v after a reset, %v fresh",
						depth, seed, i, math.Float64frombits(got.delivered[i]), math.Float64frombits(want.delivered[i]))
				}
			}
			stalls += got.stalls
		}
		if stalls == 0 {
			t.Fatalf("depth %d: no run stalled, so no congestion tree formed", depth)
		}
	}
}
