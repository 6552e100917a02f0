package network

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"northstar/internal/sim"
	"northstar/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from live output")

// TestWormholeDeliveriesPinned sends seeded incast plus background
// traffic through the wormhole fabric on FatTree(4, 2) at buffer depths
// 1, 2 and 8, with the InfiniBand preset and a copy whose PerHopDelay
// is 0, and pins every onInjected and onDelivered time as float bits
// together with Stalls. Some sends pass nil callbacks. Any change to the
// order or time at which the fabric schedules packet events shows here.
// Regenerate with go test ./internal/network -run TestWormholeDeliveriesPinned -update.
func TestWormholeDeliveriesPinned(t *testing.T) {
	noHop := InfiniBand4X()
	noHop.Name, noHop.PerHopDelay = "infiniband-4x-nohop", 0
	var out bytes.Buffer
	for _, p := range []Preset{InfiniBand4X(), noHop} {
		for _, depth := range []int{1, 2, 8} {
			k := sim.New(1)
			f := NewWormholeNet(k, p, topology.FatTree(4, 2), depth)
			rng := rand.New(rand.NewSource(5))
			const msgs = 48
			inj := make([]sim.Time, msgs)
			del := make([]sim.Time, msgs)
			for i := 0; i < msgs; i++ {
				i := i
				src, dst := 1+rng.Intn(15), 0 // incast on endpoint 0
				if i%3 != 0 {
					src, dst = rng.Intn(16), rng.Intn(15)
					if dst >= src {
						dst++
					}
				}
				size := rng.Int63n(40 << 10)
				if dst == 0 {
					size += 64 << 10
				}
				if i%7 == 0 {
					size = 0
				}
				at := sim.Time(rng.Intn(20)) * sim.Microsecond
				var onInj, onDel func()
				if i%5 != 1 {
					onInj = func() { inj[i] = k.Now() }
				}
				if i%5 != 2 {
					onDel = func() { del[i] = k.Now() }
				}
				k.At(at, func() { f.Send(src, dst, size, onInj, onDel) })
			}
			k.Run()
			fmt.Fprintf(&out, "%s depth=%d stalls=%d\n", p.Name, depth, f.Stalls)
			for i := range inj {
				fmt.Fprintf(&out, "%d %016x %016x\n", i,
					math.Float64bits(float64(inj[i])), math.Float64bits(float64(del[i])))
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "wormhole_deliveries.golden"), out.Bytes())
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
