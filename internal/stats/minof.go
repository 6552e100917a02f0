package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// MinOf returns the distribution of the minimum of n iid draws from d —
// the first-order statistic min(X₁, …, Xₙ). For the families below the
// minimum stays inside the family, so one Sample call replaces n:
//
//	Weibull(k, λ)      → Weibull(k, λ·n^(−1/k))
//	Exponential(rate)  → Exponential(n·rate)
//	Constant(v)        → Constant(v)
//
// Every closed form consumes exactly one uniform variate per Sample
// (Exponential consumes one ExpFloat64), so swapping a hand-written
// min-of-n loop for MinOf changes RNG stream consumption: results
// re-randomize within statistical tolerance but are no longer
// bit-identical to the loop. Callers with pinned goldens must
// regenerate them once (see EXPERIMENTS.md "Performance").
//
// For any other distribution MinOf falls back to drawing n samples and
// keeping the smallest — an O(n) Sample that consumes the same stream
// as the explicit loop. The fallback has no closed-form mean, so its
// Mean panics; use the closed-form families (or Monte Carlo over
// Sample) when the mean of the minimum is needed.
//
// MinOf panics if n < 1.
func MinOf(d Dist, n int) Dist {
	if n < 1 {
		panic(fmt.Sprintf("stats: MinOf needs n >= 1, got %d", n))
	}
	if n == 1 {
		return d
	}
	switch v := d.(type) {
	case Weibull:
		// P(min > t) = exp(-n·(t/λ)^k) = exp(-(t/λ')^k) with
		// λ' = λ·n^(−1/k): the minimum is Weibull with the same shape.
		return Weibull{Scale: v.Scale * math.Pow(float64(n), -1/v.Shape), Shape: v.Shape}
	case Exponential:
		return Exponential{Rate: v.Rate * float64(n)}
	case Constant:
		return v
	}
	return minFallback{d: d, n: n}
}

// minFallback is the documented O(n) fallback: Sample draws n values
// and keeps the smallest, consuming the same RNG stream as the explicit
// loop it replaces.
type minFallback struct {
	d Dist
	n int
}

// Sample implements Dist in O(n).
func (m minFallback) Sample(rng *rand.Rand) float64 {
	first := m.d.Sample(rng)
	for i := 1; i < m.n; i++ {
		if t := m.d.Sample(rng); t < first {
			first = t
		}
	}
	return first
}

// Mean panics: the minimum of a general distribution has no closed-form
// mean, and returning NaN or the per-draw mean would silently poison
// downstream statistics. Estimate it by Monte Carlo over Sample instead.
func (m minFallback) Mean() float64 {
	panic(fmt.Sprintf("stats: MinOf(%T, %d) has no closed-form mean; estimate it from Sample", m.d, m.n))
}
