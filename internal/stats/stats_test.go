package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g ± %g", what, got, want, tol)
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	approx(t, s.Mean(), 5, 1e-12, "mean")
}

func TestSummaryEmptyIsNaN(t *testing.T) {
	var s Summary
	if v := s.Mean(); !math.IsNaN(v) {
		t.Errorf("empty summary mean = %g, want NaN", v)
	}
}

// Property: Summary's streaming mean matches the direct mean.
func TestSummaryStreamingMeanProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		var s Summary
		var sum float64
		finite := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
			sum += x
			finite++
		}
		if finite == 0 {
			return math.IsNaN(s.Mean())
		}
		want := sum / float64(finite)
		return math.Abs(s.Mean()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	approx(t, s.Quantile(0.5), 50.5, 1e-9, "median")
	approx(t, s.Quantile(0), 1, 0, "q0")
	approx(t, s.Quantile(1), 100, 0, "q1")
	approx(t, s.Quantile(0.25), 25.75, 1e-9, "q25")
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	_ = s.Quantile(0.5)
	s.Add(2)
	approx(t, s.Quantile(0.5), 2, 0, "median after re-add")
}

func TestHistogramLog(t *testing.T) {
	h := NewLogHistogram(1, 1024, 10) // buckets are powers of 2
	h.Add(1.5)                        // bucket 0 [1,2)
	h.Add(3)                          // bucket 1 [2,4)
	h.Add(700)                        // bucket 9 [512,1024)
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(9) != 1 {
		t.Fatalf("log buckets wrong: %v %v %v", h.Bucket(0), h.Bucket(1), h.Bucket(9))
	}
	lo, hi := h.BucketBounds(1)
	approx(t, lo, 2, 1e-9, "bucket 1 lo")
	approx(t, hi, 4, 1e-9, "bucket 1 hi")
}

func TestHistogramAddN(t *testing.T) {
	h := NewLogHistogram(1, 1024, 10)
	h.AddN(3, 5)    // bucket 1 [2,4)
	h.AddN(0.5, 2)  // underflow
	h.AddN(2048, 3) // overflow
	if h.Bucket(1) != 5 {
		t.Fatalf("bucket 1 = %d, want 5", h.Bucket(1))
	}
	if h.Underflow() != 2 || h.Overflow() != 3 {
		t.Fatalf("under=%d over=%d, want 2 and 3", h.Underflow(), h.Overflow())
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d, want 10", h.Count())
	}
}

// AddN must reject n <= 0 loudly: a negative n would silently corrupt
// total and bucket counts, so it panics like the constructors do.
func TestHistogramAddNRejectsNonPositiveN(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddN(x, %d) did not panic", n)
				}
			}()
			NewLogHistogram(1, 1024, 10).AddN(3, n)
		}()
	}
	// Counts are untouched by a rejected call.
	h := NewLogHistogram(1, 1024, 10)
	func() {
		defer func() { recover() }()
		h.AddN(3, -7)
	}()
	if h.Count() != 0 || h.Bucket(1) != 0 {
		t.Fatalf("rejected AddN mutated the histogram: count=%d", h.Count())
	}
}

// Property: histogram never loses observations.
func TestHistogramConservationProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		h := NewLogHistogram(1e-3, 1e3, 7)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		inRange := 0
		for i := 0; i < h.Buckets(); i++ {
			inRange += h.Bucket(i)
		}
		return h.Count() == n && inRange+h.Underflow()+h.Overflow() == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200000
	cases := []struct {
		d   Dist
		tol float64
	}{
		{Constant{5}, 0},
		{LogUniform{1, 100}, 0.5},
		{Exponential{0.5}, 0.05},
		{Weibull{Scale: 10, Shape: 0.7}, 0.3},
	}
	for _, c := range cases {
		var s Summary
		for i := 0; i < n; i++ {
			x := c.d.Sample(rng)
			if x < 0 {
				t.Fatalf("%T sampled negative %g", c.d, x)
			}
			s.Add(x)
		}
		if math.Abs(s.Mean()-c.d.Mean()) > c.tol*(1+c.d.Mean()) {
			t.Errorf("%T: sample mean %g, analytic %g", c.d, s.Mean(), c.d.Mean())
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Dist{Constant{1}, LogUniform{1, 2}, Exponential{1}, Weibull{1, 1}}
	for _, d := range good {
		if err := Validate(d); err != nil {
			t.Errorf("Validate(%T) = %v, want nil", d, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Dist{Constant{-1}, LogUniform{0, 2}, LogUniform{2, 1}, Exponential{0}, Weibull{0, 1}, Weibull{1, 0},
		Constant{nan}, Constant{inf}, Exponential{nan}, Exponential{inf},
		LogUniform{nan, 2}, LogUniform{1, nan}, LogUniform{1, inf}, LogUniform{inf, inf},
		Weibull{nan, 1}, Weibull{inf, 1}, Weibull{1, nan}, Weibull{1, inf}}
	for _, d := range bad {
		if err := Validate(d); err == nil {
			t.Errorf("Validate(%#v) = nil, want error", d)
		}
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := Weibull{Scale: 4, Shape: 1}
	var s, sq Summary
	for i := 0; i < 100000; i++ {
		x := w.Sample(rng)
		s.Add(x)
		sq.Add(x * x)
	}
	approx(t, s.Mean(), 4, 0.1, "weibull(k=1) mean")
	std := math.Sqrt(sq.Mean() - s.Mean()*s.Mean())
	approx(t, std, 4, 0.15, "weibull(k=1) std") // exponential: std = mean
}

func TestSampleExtras(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sample should be NaN")
	}
	s.Add(3)
	s.Add(1)
	s.Add(2)
	approx(t, s.Mean(), 2, 1e-12, "mean")
	if lo, hi := s.Quantile(0), s.Quantile(1); lo != 1 || hi != 3 {
		t.Errorf("extreme quantiles = %g, %g; want 1, 3", lo, hi)
	}
	if !math.IsNaN(s.Quantile(-0.1)) || !math.IsNaN(s.Quantile(1.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
	var single Sample
	single.Add(7)
	approx(t, single.Quantile(0.3), 7, 0, "single quantile")
}

func TestHistogramString(t *testing.T) {
	h := NewLogHistogram(1, 4, 2)
	h.Add(0.5)
	h.Add(2)
	h.Add(9)
	out := h.String()
	for _, want := range []string{"underflow 1", "overflow 1", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLogHistogram(1, 2, 0) },
		func() { NewLogHistogram(0, 1, 3) },
		func() { NewLogHistogram(2, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram did not panic")
				}
			}()
			fn()
		}()
	}
}
