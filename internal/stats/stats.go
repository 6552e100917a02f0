// Package stats provides the statistical machinery used throughout the
// repository: streaming summaries, quantile samples, histograms, and the
// random distributions and substream seeding that drive workload and
// failure models.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming moments of a sequence of observations
// using Welford's algorithm. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN records the same observation n times.
func (s *Summary) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		s.Add(x)
	}
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Sum returns the total of the observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or NaN if empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance, or NaN for fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or NaN if empty.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN if empty.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation (1.96·σ/√n), or NaN for fewer than two
// observations.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String formats the summary for human consumption.
func (s *Summary) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Sample stores all observations, enabling exact quantiles. Use Summary
// when only moments are needed.
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

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

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

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs
}
