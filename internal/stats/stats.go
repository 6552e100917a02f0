// Package stats provides the statistical machinery used throughout the
// repository: a streaming mean, quantile samples, log-bucket histograms,
// and the random distributions and substream seeding that drive
// workload and failure models.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates the streaming mean of a sequence of observations
// using Welford's update. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
}

// Mean returns the arithmetic mean, or NaN if empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Sample stores all observations, enabling exact quantiles. Use Summary
// when only the mean is needed.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// Mean returns the arithmetic mean, or NaN if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics, or NaN if empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}
