package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a continuous probability distribution that can be sampled from
// an explicit random source. All stochastic models in the repository
// (job interarrivals, runtimes, node lifetimes, repair times) draw from a
// Dist so that every experiment is reproducible from its seed.
type Dist interface {
	// Sample draws one value.
	Sample(rng *rand.Rand) float64
	// Mean returns the distribution mean (may be +Inf).
	Mean() float64
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

// LogUniform is uniform in log space on [Lo, Hi): each decade is equally
// likely. It is the classic model for parallel-job runtimes, which span
// seconds to days.
type LogUniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u LogUniform) Sample(rng *rand.Rand) float64 {
	return u.Lo * math.Exp(rng.Float64()*math.Log(u.Hi/u.Lo))
}

// Mean implements Dist.
func (u LogUniform) Mean() float64 {
	r := math.Log(u.Hi / u.Lo)
	return (u.Hi - u.Lo) / r
}

// Exponential is the exponential distribution with the given Rate
// (events per unit time); its mean is 1/Rate. It is the memoryless
// baseline model for failures and arrivals.
type Exponential struct{ Rate float64 }

// Sample implements Dist.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Rate }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Weibull has scale λ (Scale) and shape k (Shape). Shape < 1 gives the
// decreasing hazard rate ("infant mortality") observed in real cluster
// failure logs; Shape = 1 reduces to Exponential.
type Weibull struct{ Scale, Shape float64 }

// Sample implements Dist (inverse-CDF method).
func (w Weibull) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return w.Scale * math.Pow(-math.Log(u), 1/w.Shape)
}

// Mean implements Dist: λ·Γ(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Validate sanity-checks a distribution's parameters, returning a
// descriptive error for invalid configurations. It recognizes the types
// defined in this package.
func Validate(d Dist) error {
	switch v := d.(type) {
	case Constant:
		if !(v.V >= 0) || math.IsInf(v.V, 1) {
			return fmt.Errorf("stats: constant %g must be finite and non-negative", v.V)
		}
	case LogUniform:
		if !(v.Lo > 0) || !(v.Hi > v.Lo) || math.IsInf(v.Hi, 1) {
			return fmt.Errorf("stats: log-uniform requires 0 < lo < hi < +Inf, got [%g, %g)", v.Lo, v.Hi)
		}
	case Exponential:
		if !(v.Rate > 0) || math.IsInf(v.Rate, 1) {
			return fmt.Errorf("stats: exponential rate %g must be finite and positive", v.Rate)
		}
	case Weibull:
		if !(v.Scale > 0) || math.IsInf(v.Scale, 1) || !(v.Shape > 0) || math.IsInf(v.Shape, 1) {
			return fmt.Errorf("stats: weibull scale %g, shape %g must be finite and positive", v.Scale, v.Shape)
		}
	}
	return nil
}
