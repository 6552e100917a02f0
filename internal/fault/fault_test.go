package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"northstar/internal/sim"
	"northstar/internal/stats"
)

// nodeMTBF1000d is the 2002-era rule of thumb: ~1000 days per node.
const nodeMTBF1000d = 1000 * sim.Day

func expSystem(n int) System {
	return System{Nodes: n, Lifetime: stats.Exponential{Rate: 1 / float64(nodeMTBF1000d)}}
}

func TestSystemMTBFScalesInversely(t *testing.T) {
	one := expSystem(1).MTBF()
	if math.Abs(float64(one-nodeMTBF1000d)) > 1 {
		t.Fatalf("single-node MTBF = %v, want %v", one, nodeMTBF1000d)
	}
	for _, n := range []int{10, 1000, 100000} {
		got := expSystem(n).MTBF()
		want := nodeMTBF1000d / sim.Time(n)
		if math.Abs(float64(got-want)) > 1e-6*float64(want) {
			t.Errorf("MTBF(%d) = %v, want %v", n, got, want)
		}
	}
	// The keynote's point: at 10^5 nodes, MTBF is under an hour.
	if mtbf := expSystem(100000).MTBF(); mtbf > sim.Hour {
		t.Errorf("100k-node MTBF = %v, want < 1 h", mtbf)
	}
}

func TestFirstFailureMatchesAnalyticForExponential(t *testing.T) {
	s := expSystem(64)
	got := s.FirstFailureMean(nil, 4000, 1)
	want := s.MTBF()
	if math.Abs(float64(got-want)) > 0.05*float64(want) {
		t.Errorf("first-failure mean %v, analytic %v", got, want)
	}
}

func TestWeibullInfantMortalityShortensFirstFailure(t *testing.T) {
	// Same mean lifetime, shape 0.7: the minimum of N draws is much
	// smaller than the exponential case.
	scale := float64(nodeMTBF1000d) / math.Gamma(1+1/0.7)
	weib := System{Nodes: 64, Lifetime: stats.Weibull{Scale: scale, Shape: 0.7}}
	expo := expSystem(64)
	w := weib.FirstFailureMean(nil, 4000, 2)
	e := expo.FirstFailureMean(nil, 4000, 2)
	if float64(w) > 0.8*float64(e) {
		t.Errorf("weibull(0.7) first failure %v, exponential %v; infant mortality should shorten it", w, e)
	}
}

func TestAvailabilityCollapsesWithScale(t *testing.T) {
	mk := func(n int) System {
		s := expSystem(n)
		s.Repair = stats.Constant{V: float64(4 * sim.Hour)}
		return s
	}
	a1 := mk(1).AllUpAvailability()
	a1000 := mk(1000).AllUpAvailability()
	a100k := mk(100000).AllUpAvailability()
	if a1 < 0.999 {
		t.Errorf("single node availability %g, want ~1", a1)
	}
	if !(a1 > a1000 && a1000 > a100k) {
		t.Errorf("availability not collapsing: %g, %g, %g", a1, a1000, a100k)
	}
	if a100k > 0.01 {
		t.Errorf("100k-node all-up availability %g; should be ~0 (fault recovery mandatory)", a100k)
	}
}

func TestNoRepairMeansAvailabilityOne(t *testing.T) {
	if a := expSystem(10).NodeAvailability(); a != 1 {
		t.Errorf("availability without repair = %g, want 1", a)
	}
}

func TestSystemValidate(t *testing.T) {
	bad := []System{
		{Nodes: 0, Lifetime: stats.Exponential{Rate: 1}},
		{Nodes: 4},
		{Nodes: 4, Lifetime: stats.Exponential{Rate: 0}},
		{Nodes: 4, Lifetime: stats.Exponential{Rate: 1}, Repair: stats.Weibull{Scale: 0, Shape: 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	if err := expSystem(8).Validate(); err != nil {
		t.Errorf("good system rejected: %v", err)
	}
}

func TestYoungAndDalyFormulas(t *testing.T) {
	delta := 5 * sim.Minute
	mtbf := 12 * sim.Hour
	y := YoungInterval(delta, mtbf)
	want := math.Sqrt(2 * float64(delta) * float64(mtbf))
	if math.Abs(float64(y)-want) > 1e-9 {
		t.Errorf("Young = %v, want %g", y, want)
	}
	d := DalyInterval(delta, mtbf)
	// Daly's correction is small and positive before subtracting delta.
	if d <= 0 || math.Abs(float64(d-y)) > 0.2*float64(y) {
		t.Errorf("Daly = %v, should be within 20%% of Young %v", d, y)
	}
	// Degenerate regime.
	if DalyInterval(3*mtbf, mtbf) != mtbf {
		t.Errorf("Daly should clamp to MTBF when delta >= 2M")
	}
}

func TestCheckpointNoFailuresIsPureOverhead(t *testing.T) {
	c := Checkpoint{
		Work:     10 * sim.Hour,
		Interval: sim.Hour,
		Overhead: 6 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     1e9 * sim.Hour, // effectively failure-free
	}
	res, err := c.Simulate(nil, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 segments, 9 intermediate checkpoints.
	want := 10*sim.Hour + 9*6*sim.Minute
	if math.Abs(float64(res.MeanCompletion-want)) > 1 {
		t.Errorf("failure-free completion %v, want %v", res.MeanCompletion, want)
	}
	if res.MeanFailures != 0 {
		t.Errorf("failures = %g, want 0", res.MeanFailures)
	}
}

func TestCheckpointFailuresExtendRuntime(t *testing.T) {
	c := Checkpoint{
		Work:     24 * sim.Hour,
		Interval: sim.Hour,
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     6 * sim.Hour,
	}
	res, err := c.Simulate(nil, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCompletion <= c.Work {
		t.Errorf("completion %v not above work %v", res.MeanCompletion, c.Work)
	}
	if res.MeanFailures < 3 {
		t.Errorf("failures = %g, expected ~ completion/MTBF >= 3", res.MeanFailures)
	}
	if res.UsefulFraction <= 0 || res.UsefulFraction >= 1 {
		t.Errorf("useful fraction = %g", res.UsefulFraction)
	}
}

func TestCheckpointWithoutCheckpointsLosesEverything(t *testing.T) {
	// Interval > work: one giant segment. With MTBF comparable to work,
	// completion takes many attempts.
	c := Checkpoint{
		Work:     10 * sim.Hour,
		Interval: 100 * sim.Hour,
		Overhead: sim.Minute,
		Restart:  5 * sim.Minute,
		MTBF:     5 * sim.Hour,
	}
	res, err := c.Simulate(nil, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulFraction > 0.5 {
		t.Errorf("un-checkpointed useful fraction %g; should collapse", res.UsefulFraction)
	}
}

func TestSimulatedOptimumNearYoung(t *testing.T) {
	// E10's core check: the simulated best interval is within a factor
	// ~2.5 of Young's sqrt(2 delta M) and beats both extremes.
	c := Checkpoint{
		Work:     168 * sim.Hour, // one week
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     12 * sim.Hour,
		Interval: sim.Hour, // placeholder; OptimalInterval sweeps
	}
	best, bestRes, err := c.OptimalInterval(nil, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	young := YoungInterval(c.Overhead, c.MTBF)
	ratio := float64(best) / float64(young)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("simulated optimum %v vs Young %v (ratio %.2f)", best, young, ratio)
	}
	// The optimum must beat too-frequent and too-rare checkpointing.
	for _, ivl := range []sim.Time{c.Overhead * 2, c.Work / 2} {
		trial := c
		trial.Interval = ivl
		res, err := trial.Simulate(nil, 120, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanCompletion < bestRes.MeanCompletion {
			t.Errorf("interval %v (completion %v) beat the searched optimum %v (%v)",
				ivl, res.MeanCompletion, best, bestRes.MeanCompletion)
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	bad := []Checkpoint{
		{Work: 0, Interval: 1, MTBF: 1},
		{Work: 1, Interval: 0, MTBF: 1},
		{Work: 1, Interval: 1, MTBF: 0},
		{Work: 1, Interval: 1, MTBF: 1, Overhead: -1},
	}
	for i, c := range bad {
		if _, err := c.Simulate(nil, 1, 1); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	good := Checkpoint{Work: 1, Interval: 1, MTBF: 1}
	if _, err := good.Simulate(nil, 0, 1); err == nil {
		t.Error("zero runs accepted")
	}
}

// TestNonFiniteParametersRejected: a NaN or infinite parameter fails
// validation. Accepted, a NaN never compares past Simulate's wall-clock
// cap, so the run never ends; each case therefore runs under a deadline
// and a regression fails here instead of hanging the package.
func TestNonFiniteParametersRejected(t *testing.T) {
	type tc struct {
		name string
		run  func() error
	}
	var cases []tc
	valid := Checkpoint{Work: 10 * sim.Hour, Interval: sim.Hour, Overhead: sim.Minute, Restart: sim.Minute, MTBF: 5 * sim.Hour}
	for _, v := range []sim.Time{sim.Time(math.NaN()), sim.Time(math.Inf(1))} {
		for i, field := range []string{"Work", "Interval", "Overhead", "Restart", "MTBF"} {
			c := valid
			fields := []*sim.Time{&c.Work, &c.Interval, &c.Overhead, &c.Restart, &c.MTBF}
			*fields[i] = v
			cases = append(cases, tc{fmt.Sprintf("Checkpoint %s %v", field, float64(v)), func() error {
				_, err := c.Simulate(nil, 1, 1)
				return err
			}})
		}
	}
	for _, s := range []System{
		{Nodes: 4, Lifetime: stats.Exponential{Rate: math.NaN()}},
		{Nodes: 4, Lifetime: stats.Exponential{Rate: math.Inf(1)}},
		{Nodes: 4, Lifetime: stats.Exponential{Rate: 1}, Repair: stats.Constant{V: math.NaN()}},
	} {
		cases = append(cases, tc{fmt.Sprintf("System %+v", s), s.Validate})
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() { done <- c.run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted", c.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still running after 5 s", c.name)
		}
	}
}

// Property: useful fraction is always in (0, 1], and improves (or stays
// equal) when MTBF improves, all else fixed.
func TestCheckpointMonotonicityProperty(t *testing.T) {
	prop := func(seed int64, rawM uint8) bool {
		mtbf := sim.Time(rawM%20+2) * sim.Hour
		c := Checkpoint{
			Work:     48 * sim.Hour,
			Interval: 2 * sim.Hour,
			Overhead: 4 * sim.Minute,
			Restart:  8 * sim.Minute,
			MTBF:     mtbf,
		}
		res, err := c.Simulate(nil, 60, seed)
		if err != nil || res.UsefulFraction <= 0 || res.UsefulFraction > 1 {
			return false
		}
		better := c
		better.MTBF = mtbf * 8
		res2, err := better.Simulate(nil, 60, seed)
		if err != nil {
			return false
		}
		// Allow tiny Monte Carlo noise.
		return res2.UsefulFraction >= res.UsefulFraction*0.97
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCheckpointSimulate(b *testing.B) {
	c := Checkpoint{
		Work:     168 * sim.Hour,
		Interval: sim.Hour,
		Overhead: 5 * sim.Minute,
		Restart:  10 * sim.Minute,
		MTBF:     12 * sim.Hour,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Simulate(nil, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// A run that hits the wall-clock cap is censored mid-flight; its partial
// wall clock, failures, and lost work must be excluded from the means.
// With this seed the first 9 runs complete and run 10 censors, so the
// censored result must carry exactly the statistics of the 9 completed
// runs (per-replication substream seeding => run r's stream is identical
// whether 9 or 10 runs were requested => bitwise-equal floats).
func TestSimulateCensoredRunExcludedFromMeans(t *testing.T) {
	c := Checkpoint{Work: 1000, Interval: 100, Overhead: 1, Restart: 1, MTBF: 16}
	const seed = 212
	censored, err := c.Simulate(nil, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !censored.Censored {
		t.Fatal("expected run 10 to censor; the seed hunt went stale")
	}
	clean, err := c.Simulate(nil, 9, seed)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Censored {
		t.Fatal("expected the first 9 runs to complete")
	}
	if censored.MeanCompletion != clean.MeanCompletion {
		t.Errorf("censored MeanCompletion = %v, want the completed-runs mean %v",
			censored.MeanCompletion, clean.MeanCompletion)
	}
	if censored.UsefulFraction != clean.UsefulFraction {
		t.Errorf("censored UsefulFraction = %v, want %v", censored.UsefulFraction, clean.UsefulFraction)
	}
	if censored.MeanFailures != clean.MeanFailures {
		t.Errorf("censored MeanFailures = %v, want %v", censored.MeanFailures, clean.MeanFailures)
	}
	if censored.MeanLostWork != clean.MeanLostWork {
		t.Errorf("censored MeanLostWork = %v, want %v", censored.MeanLostWork, clean.MeanLostWork)
	}
	// Extra runs past the censoring run change nothing: the loop stops at
	// the first censored run.
	again, err := c.Simulate(nil, 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	if again != censored {
		t.Errorf("Simulate(30) = %+v, want identical to Simulate(10) = %+v", again, censored)
	}
}

// If the very first run censors, no completed statistics exist at all:
// the result must say Forever/censored, not report the partial run as a
// completed mean (pre-fix it returned the wall-clock cap as the "mean").
func TestSimulateCensoredFirstRunReportsForever(t *testing.T) {
	c := Checkpoint{Work: 1e6, Interval: 1e6, Overhead: 10, Restart: 10, MTBF: 100}
	res, err := c.Simulate(nil, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Censored {
		t.Fatal("a segment 10000x the MTBF must censor")
	}
	if res.MeanCompletion != sim.Forever {
		t.Errorf("MeanCompletion = %v, want sim.Forever", res.MeanCompletion)
	}
	if res.UsefulFraction != 0 || res.MeanFailures != 0 || res.MeanLostWork != 0 {
		t.Errorf("partial-run statistics leaked into the censored result: %+v", res)
	}
}

// The non-censored path is pinned: refactors of the accounting must not
// move any completed-runs number. Values were captured when substream
// seeding landed (a one-time stream change); the tolerance is a few
// ulps to absorb reordered float additions inside a run.
func TestSimulateNonCensoredPinned(t *testing.T) {
	c := Checkpoint{
		Work:     7 * 24 * 3600,
		Interval: 4 * 3600,
		Overhead: 300,
		Restart:  600,
		MTBF:     24 * 3600,
	}
	res, err := c.Simulate(nil, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored {
		t.Fatal("unexpected censoring")
	}
	pin := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	pin(float64(res.MeanCompletion), 676487.19462375809, "MeanCompletion")
	pin(res.UsefulFraction, 0.89403022674563948, "UsefulFraction")
	pin(res.MeanFailures, 7.645, "MeanFailures")
	pin(float64(res.MeanLostWork), 54780.04201303266, "MeanLostWork")
}

// FirstFailureMean must reject runs <= 0 loudly instead of returning NaN
// from the division and poisoning every downstream number.
func TestFirstFailureMeanRejectsNonPositiveRuns(t *testing.T) {
	s := System{Nodes: 4, Lifetime: stats.Exponential{Rate: 1}}
	for _, runs := range []int{0, -1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("FirstFailureMean(%d) did not panic", runs)
					return
				}
				if !strings.Contains(fmt.Sprint(r), "runs > 0") {
					t.Errorf("FirstFailureMean(%d) panic message %q lacks guidance", runs, r)
				}
			}()
			s.FirstFailureMean(nil, runs, 1)
		}()
	}
	// The valid path still works and is finite.
	got := s.FirstFailureMean(nil, 100, 1)
	if math.IsNaN(float64(got)) || got <= 0 {
		t.Errorf("FirstFailureMean(100) = %v, want a positive finite time", got)
	}
}
