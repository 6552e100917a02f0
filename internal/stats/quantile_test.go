package stats

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	h := NewLogHistogram(1, 1024, 10)
	h.AddN(5.5, 100) // all mass in bucket [4, 8)
	if got := h.Quantile(0.5); got < 4 || got > 8 {
		t.Errorf("Quantile(0.5) = %g, want inside [4, 8)", got)
	}
	// Quantiles sweep the bucket: q=0.1 sits below q=0.9.
	if lo, hi := h.Quantile(0.1), h.Quantile(0.9); lo >= hi {
		t.Errorf("Quantile(0.1) = %g >= Quantile(0.9) = %g, want monotone", lo, hi)
	}
}

func TestQuantileLog(t *testing.T) {
	h := NewLogHistogram(1, 1024, 10) // doubling buckets
	h.AddN(1.5, 10)                   // bucket [1, 2)
	h.AddN(100, 10)                   // bucket [64, 128)
	// Median boundary: half the mass is at/below the first bucket.
	if got := h.Quantile(0.25); got < 1 || got > 2 {
		t.Errorf("Quantile(0.25) = %g, want inside [1, 2)", got)
	}
	if got := h.Quantile(0.75); got < 64 || got > 128 {
		t.Errorf("Quantile(0.75) = %g, want inside [64, 128)", got)
	}
	// Log interpolation stays geometric: the bucket midpoint quantile of
	// a single-bucket histogram is sqrt(lo*hi).
	h2 := NewLogHistogram(1, 1024, 10)
	h2.AddN(1.5, 100)
	if got, want := h2.Quantile(0.5), math.Sqrt(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("log-bucket median = %g, want sqrt(2) = %g", got, want)
	}
}

func TestQuantileUnderOverflow(t *testing.T) {
	h := NewLogHistogram(10, 20, 10)
	h.AddN(5, 10)  // underflow
	h.AddN(50, 10) // overflow
	if got := h.Quantile(0.25); got != 10 {
		t.Errorf("underflow quantile = %g, want lo bound 10", got)
	}
	if got := h.Quantile(1.0); got != 20 {
		t.Errorf("overflow quantile = %g, want hi bound 20", got)
	}
}

func TestQuantileEmptyAndPanics(t *testing.T) {
	h := NewLogHistogram(1, 2, 4)
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %g, want NaN", got)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%g) did not panic", q)
				}
			}()
			h.Quantile(q)
		}()
	}
}
