package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts observations into fixed logarithmic buckets (equal
// ratio); values outside the range land in underflow/overflow counters
// so no observation is lost.
type Histogram struct {
	lo, hi   float64
	counts   []int
	under    int
	over     int
	total    int
	logLo    float64
	logWidth float64
}

// NewLogHistogram returns a histogram with n buckets of equal ratio over
// [lo, hi). lo must be positive.
func NewLogHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || lo <= 0 || hi <= lo {
		panic("stats: invalid log histogram range")
	}
	h := &Histogram{lo: lo, hi: hi, counts: make([]int, n)}
	h.logLo = math.Log(lo)
	h.logWidth = (math.Log(hi) - h.logLo) / float64(n)
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n identical observations of x. It lets callers that
// pre-aggregate in their own counters (for example the kernel probe's
// power-of-two depth counts) publish into a histogram without replaying
// every observation.
func (h *Histogram) AddN(x float64, n int) {
	if n <= 0 {
		// A negative n would silently corrupt total and bucket counts;
		// fail loudly, like the constructors do on a bad range.
		panic(fmt.Sprintf("stats: histogram AddN needs n > 0, got %d", n))
	}
	h.total += n
	switch {
	case x < h.lo:
		h.under += n
	case x >= h.hi:
		h.over += n
	default:
		i := int((math.Log(x) - h.logLo) / h.logWidth)
		if i < 0 {
			i = 0
		}
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i] += n
	}
}

// Count returns the total number of observations including out-of-range.
func (h *Histogram) Count() int { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int { return h.counts[i] }

// Buckets returns the number of in-range buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Underflow and Overflow return the out-of-range counts.
func (h *Histogram) Underflow() int { return h.under }

// Overflow returns the count of observations >= the histogram's upper bound.
func (h *Histogram) Overflow() int { return h.over }

// BucketBounds returns the [lo, hi) bounds of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	lo = math.Exp(h.logLo + float64(i)*h.logWidth)
	hi = math.Exp(h.logLo + float64(i+1)*h.logWidth)
	return lo, hi
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the recorded
// observations from the bucket counts: mass is assumed uniform in log
// space within a bucket, underflow mass sits at the lower bound and
// overflow at the upper. Empty histograms return NaN; q outside [0, 1]
// panics.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile out of range: %g", q))
	}
	if h.total == 0 {
		return math.NaN()
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if h.under > 0 && target <= cum {
		return h.lo
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target <= next {
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			lo, hi := h.BucketBounds(i)
			return lo * math.Pow(hi/lo, frac)
		}
		cum = next
	}
	return h.hi
}

// String renders an ASCII bar chart, one line per bucket.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 1
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.counts {
		lo, hi := h.BucketBounds(i)
		bar := strings.Repeat("#", c*40/maxCount)
		fmt.Fprintf(&b, "[%10.3g, %10.3g) %6d %s\n", lo, hi, c, bar)
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.under)
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.over)
	}
	return b.String()
}
