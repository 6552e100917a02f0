package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf walker, so the benchmark needs
// no module beyond the standard library, and buckets every sample by
// the layer that spent it.

// moduleBuckets are the northstar/internal packages reported as their
// own CPU bucket. A sample whose innermost internal frame is in another
// internal package (node, tech, workload, ...) rolls up to the nearest
// caller frame in one of these.
var moduleBuckets = []string{
	"sim", "network", "topology", "msg", "machine", "experiments",
	"serve", "mc", "fault", "sched", "stats", "obs",
}

// otherBuckets take the samples that have no frame in a module bucket.
var otherBuckets = []string{"runtime_gc", "net_http", "encoding_json", "crypto", "other"}

// cpuBuckets lists every bucket in report order.
func cpuBuckets() []string { return append(append([]string(nil), moduleBuckets...), otherBuckets...) }

const internalPrefix = "northstar/internal/"

// bucketOf attributes one sample, given its frames innermost first: to
// the innermost frame in a module bucket, else by the first frame that
// marks garbage collection, net/http (or net), encoding/json or crypto,
// else to "other".
func bucketOf(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		mod := f[len(internalPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, b := range moduleBuckets {
			if mod == b {
				return b
			}
		}
	}
	for _, f := range frames {
		switch {
		case isGCFrame(f):
			return "runtime_gc"
		case strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net."):
			return "net_http"
		case strings.HasPrefix(f, "encoding/json."):
			return "encoding_json"
		case strings.HasPrefix(f, "crypto/"):
			return "crypto"
		}
	}
	return "other"
}

// isGCFrame reports the runtime's background collector entry points.
// Assist work inside an allocating caller is charged to that caller.
func isGCFrame(f string) bool {
	switch f {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination":
		return true
	}
	return strings.HasPrefix(f, "runtime.gcDrain")
}

// cpuShares decodes a gzipped CPU profile and returns each bucket's
// share of sampled CPU time; every bucket is present and the shares sum
// to 1. A profile with no samples is an error.
func cpuShares(profile []byte) (map[string]float64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64)
	for _, b := range cpuBuckets() {
		shares[b] = 0
	}
	var total float64
	for _, s := range samples {
		shares[bucketOf(s.frames)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}

// profSample is one decoded sample: its frames, innermost first, and its
// last value (CPU nanoseconds in a CPU profile).
type profSample struct {
	frames []string
	value  float64
}

// decodeProfile reads the fields of profile.proto that attribution
// needs: samples (location ids, values), locations (line → function),
// functions (name index) and the string table.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{value: float64(s.value)}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walk calls fn for each field of one protobuf message: varint fields
// get their value, length-delimited fields their bytes. Fixed-width
// fields are skipped; profile.proto has none that attribution reads.
func walk(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may
// write packed (bytes) or as one value per field (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
