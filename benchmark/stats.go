package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: fewer would make the "tail" one or two outliers.
const tailBeyond = 10

// timing summarizes one set of per-op host durations: the median, the
// tail (see tailIndex) with the percentile it was taken at, the sample
// count, and throughput over the loop's wall clock.
type timing struct {
	N           int
	P50         time.Duration
	Tail        time.Duration
	TailPct     float64
	OpsPerSec   float64
	WallSeconds float64
}

// summarize sorts durs in place: a serve run holds hundreds of
// thousands, and copies would show in the run's peak RSS.
func summarize(durs []time.Duration, wall time.Duration) timing {
	slices.Sort(durs)
	n := len(durs)
	t := timing{N: n, WallSeconds: wall.Seconds()}
	if n == 0 {
		return t
	}
	t.P50 = durs[n/2]
	if n%2 == 0 {
		t.P50 = (durs[n/2-1] + durs[n/2]) / 2
	}
	idx := tailIndex(n)
	t.Tail, t.TailPct = durs[idx], 100*float64(idx+1)/float64(n)
	if wall > 0 {
		t.OpsPerSec = float64(n) / wall.Seconds()
	}
	return t
}

// tailCap is the highest percentile reported as a tail. Higher ones
// measure the host rather than the program on a shared virtual machine:
// the hypervisor takes a vCPU away for milliseconds at a time, which
// puts a served request's p99 anywhere from 0.27 to 2.1 ms from one
// second to the next while its p90 stays within 0.08 to 0.12 ms
// (see README.md).
const tailCap = 0.90

// tailIndex returns the index, in n ascending samples, of the highest
// percentile that still has at least tailBeyond samples beyond it,
// capped at tailCap (nearest rank) and never below the median: with
// fewer than 2*tailBeyond+1 samples it is the sample above the middle,
// with tailBeyond or fewer the maximum. About 40 suite passes give p75;
// a serve run's hundreds of thousands of requests give p90.
func tailIndex(n int) int {
	if n <= tailBeyond {
		return n - 1
	}
	idx := n - 1 - tailBeyond
	if capIdx := int(math.Ceil(tailCap*float64(n))) - 1; capIdx < idx {
		idx = capIdx
	}
	return max(idx, n/2)
}

// median of a sorted or unsorted sample; the mean of the middle two for
// an even count, as Python's statistics.median.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(data, n=4) (the default, "exclusive"),
// so spreads read the same here as in any script that checks them. It
// needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
