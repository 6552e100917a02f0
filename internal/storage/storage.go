// Package storage models the cluster I/O subsystem: commodity disks,
// striped per-node arrays, and a PVFS-style parallel file system of
// dedicated I/O servers reached over the fabric. Its job in this
// repository is to close the fault-tolerance loop: checkpoint cost (the
// delta in Young's formula) is not a free parameter but the time to
// move the machine's memory image through the I/O system, which is what
// couples the keynote's storage-capacity curves to its fault-recovery
// claims.
package storage

import (
	"fmt"

	"northstar/internal/sim"
)

// Disk models one rotating commodity disk.
type Disk struct {
	// Seek is the average positioning time before a large sequential
	// transfer.
	Seek sim.Time
	// Bandwidth is the sustained sequential rate, bytes/s.
	Bandwidth float64
}

// IDE2002 is the 2002 commodity disk: ~40 MB/s sustained, ~9 ms seek.
func IDE2002() Disk {
	return Disk{Seek: 9 * sim.Millisecond, Bandwidth: 40e6}
}

// Validate checks disk parameters.
func (d Disk) Validate() error {
	if d.Seek < 0 || d.Bandwidth <= 0 {
		return fmt.Errorf("storage: invalid disk %+v", d)
	}
	return nil
}

// Array is a stripe set (RAID-0 style) of identical disks: bandwidth
// scales with the stripe width, seeks overlap.
type Array struct {
	Disks int
	Disk  Disk
}

// Validate checks array parameters.
func (a Array) Validate() error {
	if a.Disks <= 0 {
		return fmt.Errorf("storage: array needs disks > 0")
	}
	return a.Disk.Validate()
}

// Bandwidth returns the array's aggregate sequential rate.
func (a Array) Bandwidth() float64 { return float64(a.Disks) * a.Disk.Bandwidth }

// Mode selects where checkpoints land.
type Mode int

// Checkpoint destinations.
const (
	// LocalScratch writes each node's state to its own disks — fast but
	// lost with the node; real systems pair it with a later drain.
	LocalScratch Mode = iota
	// SharedServers writes through dedicated I/O servers over the
	// fabric (the PVFS model): survivable, but bounded by server count
	// and per-node fabric bandwidth.
	SharedServers
)

// System is a cluster I/O subsystem.
type System struct {
	Mode Mode
	// Nodes is the number of compute nodes writing state.
	Nodes int
	// PerNode is each compute node's local array (LocalScratch mode).
	PerNode Array
	// Servers and ServerArray describe the I/O servers (SharedServers
	// mode).
	Servers     int
	ServerArray Array
	// FabricBandwidthPerNode bounds each node's injection rate toward
	// the servers, bytes/s (SharedServers mode).
	FabricBandwidthPerNode float64
}

// Validate checks the system.
func (s System) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("storage: system needs nodes > 0")
	}
	switch s.Mode {
	case LocalScratch:
		return s.PerNode.Validate()
	case SharedServers:
		if s.Servers <= 0 {
			return fmt.Errorf("storage: shared mode needs servers > 0")
		}
		if s.FabricBandwidthPerNode <= 0 {
			return fmt.Errorf("storage: shared mode needs fabric bandwidth")
		}
		return s.ServerArray.Validate()
	default:
		return fmt.Errorf("storage: unknown mode %d", s.Mode)
	}
}

// AggregateBandwidth returns the system's sustained write rate for a
// full-machine checkpoint, bytes/s.
func (s System) AggregateBandwidth() float64 {
	switch s.Mode {
	case LocalScratch:
		return float64(s.Nodes) * s.PerNode.Bandwidth()
	case SharedServers:
		serverBW := float64(s.Servers) * s.ServerArray.Bandwidth()
		fabricBW := float64(s.Nodes) * s.FabricBandwidthPerNode
		if fabricBW < serverBW {
			return fabricBW
		}
		return serverBW
	}
	return 0
}

// CheckpointTime returns the time to write totalBytes of machine state
// (each node writes its share concurrently).
func (s System) CheckpointTime(totalBytes float64) (sim.Time, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if totalBytes < 0 {
		return 0, fmt.Errorf("storage: negative checkpoint size")
	}
	bw := s.AggregateBandwidth()
	var seek sim.Time
	switch s.Mode {
	case LocalScratch:
		seek = s.PerNode.Disk.Seek
	case SharedServers:
		seek = s.ServerArray.Disk.Seek
	}
	return seek + sim.Time(totalBytes/bw), nil
}
