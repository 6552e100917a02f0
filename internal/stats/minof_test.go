package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sampleMean draws n samples and averages.
func sampleMean(t *testing.T, d Dist, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	return sum / float64(n)
}

// bruteMin estimates the mean minimum of n draws by explicit looping —
// the reference MinOf must agree with.
func bruteMin(d Dist, n, runs int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for r := 0; r < runs; r++ {
		first := d.Sample(rng)
		for i := 1; i < n; i++ {
			if t := d.Sample(rng); t < first {
				first = t
			}
		}
		sum += first
	}
	return sum / float64(runs)
}

func TestMinOfClosedForms(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		n    int
	}{
		{"weibull-infant", Weibull{Scale: 100, Shape: 0.7}, 50},
		{"weibull-wearout", Weibull{Scale: 3, Shape: 2.5}, 8},
		{"exponential", Exponential{Rate: 0.25}, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			min := MinOf(tc.d, tc.n)
			if _, isFallback := min.(minFallback); isFallback {
				t.Fatalf("MinOf(%T, %d) fell back to the O(n) loop; want a closed form", tc.d, tc.n)
			}
			// Closed-form mean must match a brute-force Monte Carlo of the
			// explicit min-of-n loop.
			brute := bruteMin(tc.d, tc.n, 20000, 1)
			if got := min.Mean(); math.Abs(got-brute)/brute > 0.05 {
				t.Errorf("Mean() = %g, brute-force estimate %g (>5%% apart)", got, brute)
			}
			// And Sample must be distributed like the minimum: its empirical
			// mean must match Mean().
			emp := sampleMean(t, min, 20000, 2)
			if math.Abs(emp-min.Mean())/min.Mean() > 0.05 {
				t.Errorf("empirical mean %g vs analytic %g (>5%% apart)", emp, min.Mean())
			}
		})
	}
}

func TestMinOfWeibullExact(t *testing.T) {
	// min of N iid Weibull(k, λ) is exactly Weibull(k, λ·N^(−1/k)).
	w := Weibull{Scale: 1000, Shape: 0.7}
	got := MinOf(w, 100000).(Weibull)
	wantScale := 1000 * math.Pow(100000, -1/0.7)
	if math.Abs(got.Scale-wantScale) > 1e-9*wantScale || got.Shape != 0.7 {
		t.Errorf("MinOf(Weibull) = %+v, want scale %g shape 0.7", got, wantScale)
	}
}

func TestMinOfIdentities(t *testing.T) {
	w := Weibull{Scale: 2, Shape: 1.5}
	if MinOf(w, 1) != w {
		t.Error("MinOf(d, 1) should return d unchanged")
	}
	c := Constant{V: 7}
	if MinOf(c, 10) != c {
		t.Error("MinOf(Constant, n) should return the constant")
	}
	e := MinOf(Exponential{Rate: 2}, 5).(Exponential)
	if e.Rate != 10 {
		t.Errorf("MinOf(Exp rate 2, 5).Rate = %g, want 10", e.Rate)
	}
}

func TestMinOfFallback(t *testing.T) {
	d := LogUniform{Lo: 1, Hi: 100}
	min := MinOf(d, 6)
	if _, ok := min.(minFallback); !ok {
		t.Fatalf("MinOf(LogUniform) = %T, want the documented fallback", min)
	}
	// The fallback consumes the same RNG stream as the explicit loop, so
	// with equal seeds it is bit-identical to it.
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		want := d.Sample(rngB)
		for j := 1; j < 6; j++ {
			if t2 := d.Sample(rngB); t2 < want {
				want = t2
			}
		}
		if got := min.Sample(rngA); got != want {
			t.Fatalf("fallback sample %d = %g, explicit loop %g", i, got, want)
		}
	}
	// No closed-form mean: Mean must panic rather than return garbage.
	defer func() {
		if recover() == nil {
			t.Error("fallback Mean() should panic")
		}
	}()
	min.Mean()
}

func TestMinOfBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinOf(d, 0) should panic")
		}
	}()
	MinOf(Exponential{Rate: 1}, 0)
}
