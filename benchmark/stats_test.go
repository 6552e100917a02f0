package main

import (
	"testing"
	"time"
)

func TestTailIndex(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{1, 0, 100},
		{10, 9, 100},        // too few samples for a tail: the maximum
		{11, 5, 600.0 / 11}, // ten beyond would be below the median
		{21, 10, 1100.0 / 21},
		{22, 11, 1200.0 / 22},
		{40, 29, 75},    // ~40 suite passes: p75
		{50, 39, 80},    // ~50 collectives iterations: p80
		{100, 89, 90},   // ten beyond is exactly p90
		{1100, 989, 90}, // ten beyond would be p99.1: capped at p90
		{700000, 629999, 90},
	} {
		idx := tailIndex(c.n)
		if idx != c.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, idx, c.idx)
		}
		if beyond := c.n - 1 - idx; c.n > 2*tailBeyond && beyond < tailBeyond {
			t.Errorf("tailIndex(%d): only %d samples beyond", c.n, beyond)
		}
		if pct := 100 * float64(idx+1) / float64(c.n); pct != c.pct {
			t.Errorf("tailIndex(%d) is p%v, want p%v", c.n, pct, c.pct)
		}
	}
}

func TestSummarize(t *testing.T) {
	var durs []time.Duration
	for i := 40; i >= 1; i-- {
		durs = append(durs, time.Duration(i)*time.Millisecond)
	}
	s := summarize(durs, 2*time.Second)
	if s.N != 40 || s.P50 != 20500*time.Microsecond || s.Tail != 30*time.Millisecond || s.TailPct != 75 || s.OpsPerSec != 20 {
		t.Fatalf("summarize = %+v", s)
	}
}

// The quartiles must read as Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
		{[]float64{10.5, 11.25}, 10.3125, 11.4375},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
