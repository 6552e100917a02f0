package storage

import (
	"math"
	"testing"
	"testing/quick"

	"northstar/internal/sim"
)

func TestArrayScalesBandwidth(t *testing.T) {
	a := Array{Disks: 4, Disk: IDE2002()}
	if a.Bandwidth() != 160e6 {
		t.Fatalf("array bandwidth = %g", a.Bandwidth())
	}
}

func TestLocalScratchCheckpoint(t *testing.T) {
	s := System{
		Mode:    LocalScratch,
		Nodes:   128,
		PerNode: Array{Disks: 2, Disk: IDE2002()},
	}
	// 128 nodes x 2 GB each = 256 GB through 128 x 80 MB/s.
	got, err := s.CheckpointTime(256e9)
	if err != nil {
		t.Fatal(err)
	}
	want := IDE2002().Seek + sim.Time(256e9/(128*80e6))
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("checkpoint = %v, want %v", got, want)
	}
}

func TestSharedServersBoundedByServersOrFabric(t *testing.T) {
	base := System{
		Mode:                   SharedServers,
		Nodes:                  256,
		Servers:                8,
		ServerArray:            Array{Disks: 4, Disk: IDE2002()},
		FabricBandwidthPerNode: 100e6,
	}
	// Server-bound: 8 x 160 MB/s = 1.28 GB/s < 256 x 100 MB/s.
	if got := base.AggregateBandwidth(); got != 8*4*40e6 {
		t.Fatalf("server-bound bandwidth = %g", got)
	}
	// Fabric-bound: few nodes with slow NICs.
	fb := base
	fb.Nodes = 4
	fb.FabricBandwidthPerNode = 10e6
	if got := fb.AggregateBandwidth(); got != 4*10e6 {
		t.Fatalf("fabric-bound bandwidth = %g", got)
	}
}

func TestLocalBeatsSharedForCheckpoint(t *testing.T) {
	// The classic result: node-local scratch scales with the machine,
	// shared servers do not.
	local := System{Mode: LocalScratch, Nodes: 1024, PerNode: Array{Disks: 1, Disk: IDE2002()}}
	shared := System{
		Mode: SharedServers, Nodes: 1024, Servers: 16,
		ServerArray:            Array{Disks: 4, Disk: IDE2002()},
		FabricBandwidthPerNode: 100e6,
	}
	bytes := 1024 * 2e9 // 2 GB per node
	tl, err := local.CheckpointTime(bytes)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := shared.CheckpointTime(bytes)
	if err != nil {
		t.Fatal(err)
	}
	if tl >= ts {
		t.Fatalf("local %v not faster than shared %v at 1024 nodes", tl, ts)
	}
}

func TestValidation(t *testing.T) {
	bad := []System{
		{Mode: LocalScratch, Nodes: 0, PerNode: Array{Disks: 1, Disk: IDE2002()}},
		{Mode: LocalScratch, Nodes: 4, PerNode: Array{Disks: 0, Disk: IDE2002()}},
		{Mode: SharedServers, Nodes: 4, Servers: 0, ServerArray: Array{Disks: 1, Disk: IDE2002()}, FabricBandwidthPerNode: 1e6},
		{Mode: SharedServers, Nodes: 4, Servers: 2, ServerArray: Array{Disks: 1, Disk: IDE2002()}},
		{Mode: Mode(9), Nodes: 4},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	if _, err := (System{Mode: LocalScratch, Nodes: 1, PerNode: Array{Disks: 1, Disk: IDE2002()}}).CheckpointTime(-5); err == nil {
		t.Error("negative checkpoint size accepted")
	}
}

// Property: checkpoint time is monotone in bytes and antitone in disks.
func TestCheckpointMonotonicityProperty(t *testing.T) {
	prop := func(rawBytes uint32, rawDisks uint8) bool {
		bytes := float64(rawBytes) * 1e3
		disks := int(rawDisks%8) + 1
		s := System{Mode: LocalScratch, Nodes: 16, PerNode: Array{Disks: disks, Disk: IDE2002()}}
		t1, err := s.CheckpointTime(bytes)
		if err != nil {
			return false
		}
		t2, err := s.CheckpointTime(bytes + 1e9)
		if err != nil || t2 <= t1 {
			return false
		}
		s.PerNode.Disks = disks + 1
		t3, err := s.CheckpointTime(bytes + 1e9)
		return err == nil && t3 < t2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
