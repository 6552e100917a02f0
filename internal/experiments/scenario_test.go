package experiments_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"northstar/internal/experiments"
	"northstar/internal/mc"
)

// TestScenariosValidate asserts every registered spec passes its own
// validation and produces at least one row in both modes — the registry
// must never ship a spec the interpreter would reject.
func TestScenariosValidate(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range experiments.Scenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.ID, err)
		}
		if seen[sc.ID] {
			t.Errorf("duplicate scenario ID %s", sc.ID)
		}
		seen[sc.ID] = true
		for _, quick := range []bool{false, true} {
			if n := sc.RowCount(quick); n < 1 {
				t.Errorf("%s: RowCount(quick=%v) = %d", sc.ID, quick, n)
			}
		}
		// The suite entry must come from the same spec data.
		s, err := experiments.ByID(sc.ID)
		if err != nil {
			t.Errorf("%s: not in the suite: %v", sc.ID, err)
			continue
		}
		if s.Title != sc.Name || s.Cost != sc.Cost {
			t.Errorf("%s: suite entry (title %q, cost %g) drifted from spec (name %q, cost %g)",
				sc.ID, s.Title, s.Cost, sc.Name, sc.Cost)
		}
	}
	if len(seen) < 8 {
		t.Errorf("only %d experiments are spec-driven, want >= 8", len(seen))
	}
}

// TestScenarioGoldenAcrossWorkers is the metamorphic pin for the
// interpreter: every migrated experiment's spec-driven quick run must be
// byte-identical to its pre-refactor golden file at several mc pool
// widths — sequential, one helper, and many helpers. Sweep sharding may
// move work between goroutines, never bytes. (Suite-level worker counts
// 1/2/8 are covered by TestRunSuiteDeterministic; the pool width
// here is the shard axis the interpreter itself uses.)
func TestScenarioGoldenAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every migrated experiment several times")
	}
	defer mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - 1)
	for _, helpers := range []int{0, 1, 7} {
		mc.SetDefaultWorkers(helpers)
		for _, sc := range experiments.Scenarios() {
			want, err := os.ReadFile(goldenPath(sc.ID))
			if err != nil {
				t.Fatalf("%s: %v", sc.ID, err)
			}
			tab, err := sc.Run(true)
			if err != nil {
				t.Fatalf("%s (helpers=%d): %v", sc.ID, helpers, err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("%s: output at pool width %d differs from golden at line %d",
					sc.ID, helpers, diffLine(got, string(want)))
			}
		}
	}
}

// TestRunOnRunsFaultEstimatesOnItsPool: RunOn hands its pool to E9's and
// E10's Monte Carlo estimates. With the default pool closed, so that an
// estimate reaching for it panics, RunOn on an inline pool still returns
// the reference tables in both modes.
func TestRunOnRunsFaultEstimatesOnItsPool(t *testing.T) {
	t.Cleanup(func() { mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - 1) })
	mc.SetDefaultWorkers(1)
	mc.Default().Close()
	p := mc.NewPool(0)
	for _, id := range []string{"E9", "E10"} {
		sc, err := experiments.ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, quick := range []bool{true, false} {
			tab, err := sc.RunOn(p, quick)
			if err != nil {
				t.Fatalf("%s quick=%v: %v", id, quick, err)
			}
			if got, want := tab.String(), referenceTable(t, id, quick); got != want {
				t.Errorf("%s quick=%v: differs from the reference at line %d", id, quick, diffLine(got, want))
			}
		}
	}
}

// referenceTable returns id's committed table: the golden file in quick
// mode, its section of results/full_output.txt in full mode.
func referenceTable(t *testing.T, id string, quick bool) string {
	t.Helper()
	if quick {
		want, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatal(err)
		}
		return string(want)
	}
	out, err := os.ReadFile(filepath.Join(resultsDir, "full_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	i := strings.Index(s, "== "+id+": ")
	if i < 0 {
		t.Fatalf("%s has no table in results/full_output.txt", id)
	}
	return s[i : i+strings.Index(s[i:], "\n\n")+2]
}

// TestScenarioJSONRoundTrip proves the -describe wire format is
// lossless: marshal → unmarshal reproduces the spec value, and running
// the parsed copy reproduces the registered spec's table bytes.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range experiments.Scenarios() {
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		var parsed experiments.ScenarioSpec
		if err := json.Unmarshal(enc, &parsed); err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		if !reflect.DeepEqual(*sc, parsed) {
			t.Errorf("%s: JSON round trip changed the spec\n got %+v\nwant %+v", sc.ID, parsed, *sc)
			continue
		}
		want, err := sc.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parsed.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: parsed spec renders different bytes", sc.ID)
		}
	}
}

// TestScenarioValidationErrors feeds the interpreter hostile specs —
// the exact classes a future scenario service must reject — and expects
// an error from every one, with Run refusing to execute.
func TestScenarioValidationErrors(t *testing.T) {
	// base returns a fresh valid copy of E6b (small, has params, quick,
	// options, and a quick axis) that each case then breaks.
	base := func() *experiments.ScenarioSpec {
		sc, err := experiments.ScenarioByID("E6b")
		if err != nil {
			t.Fatal(err)
		}
		enc, _ := json.Marshal(sc)
		var cp experiments.ScenarioSpec
		if err := json.Unmarshal(enc, &cp); err != nil {
			t.Fatal(err)
		}
		return &cp
	}
	cases := []struct {
		name  string
		wreck func(*experiments.ScenarioSpec)
		want  string
	}{
		{"no id", func(s *experiments.ScenarioSpec) { s.ID = "" }, "no id"},
		{"no title", func(s *experiments.ScenarioSpec) { s.Title = "" }, "name and title"},
		{"no columns", func(s *experiments.ScenarioSpec) { s.Columns = nil }, "no columns"},
		{"unknown model", func(s *experiments.ScenarioSpec) { s.Model = "warp-drive" }, "unknown model"},
		{"wrong column count", func(s *experiments.ScenarioSpec) { s.Columns = s.Columns[:2] }, "cells per row"},
		{"missing axis", func(s *experiments.ScenarioSpec) { s.Sweep = nil }, "sweep axes"},
		{"renamed axis", func(s *experiments.ScenarioSpec) { s.Sweep[0].Name = "sizes" }, "declares"},
		{"empty axis values", func(s *experiments.ScenarioSpec) { s.Sweep[0].Values = []string{} }, "empty value set"},
		{"non-integer axis value", func(s *experiments.ScenarioSpec) { s.Sweep[0].Values[0] = "many" }, "not an integer"},
		{"axis value out of range", func(s *experiments.ScenarioSpec) { s.Sweep[0].Values[0] = "-4" }, "outside"},
		{"hostile node count", func(s *experiments.ScenarioSpec) { s.Params["p"] = 1 << 40 }, "outside"},
		{"fractional node count", func(s *experiments.ScenarioSpec) { s.Params["p"] = 16.5 }, "integer"},
		{"NaN parameter", func(s *experiments.ScenarioSpec) { s.Params["p"] = math.NaN() }, "not finite"},
		{"Inf parameter", func(s *experiments.ScenarioSpec) { s.Params["p"] = math.Inf(1) }, "not finite"},
		{"undeclared parameter", func(s *experiments.ScenarioSpec) { s.Params["warp"] = 9 }, "does not declare"},
		{"missing parameter", func(s *experiments.ScenarioSpec) { delete(s.Params, "p"); delete(s.Quick, "p") }, "missing required parameter"},
		{"quick without full", func(s *experiments.ScenarioSpec) { delete(s.Params, "p") }, "without a full-mode value"},
		{"unknown fabric", func(s *experiments.ScenarioSpec) { s.Options["fabric"] = "token-ring" }, "unknown fabric"},
		{"undeclared option", func(s *experiments.ScenarioSpec) { s.Options["color"] = "blue" }, "does not declare"},
		{"missing option", func(s *experiments.ScenarioSpec) { delete(s.Options, "fabric") }, "missing required option"},
		{"unknown title token", func(s *experiments.ScenarioSpec) { s.Title = "ablation at P={q}" }, "names no parameter"},
		{"unterminated title token", func(s *experiments.ScenarioSpec) { s.Title = "ablation at P={p" }, "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.wreck(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted a hostile spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, runErr := sc.Run(true); runErr == nil {
				t.Fatal("Run executed a spec Validate rejects")
			}
		})
	}
	var nilSpec *experiments.ScenarioSpec
	if err := nilSpec.Validate(); err == nil {
		t.Error("Validate accepted a nil spec")
	}
}

// FuzzScenarioSpec throws arbitrary JSON at the spec decoder and
// validator: whatever the bytes, Validate must return a verdict, never
// panic — and a spec it accepts must produce its declared table shape.
// This is the trust boundary for user-submitted scenarios.
func FuzzScenarioSpec(f *testing.F) {
	for _, sc := range experiments.Scenarios() {
		enc, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(enc))
	}
	f.Add(`{"id":"Z1","model":"pingpong","params":{"reps":1e300}}`)
	f.Add(`{"id":"Z2","model":"mtbf-scale","sweep":[{"name":"nodes","values":[]}]}`)
	f.Add(`{"id":"Z3","model":"allreduce-algos","options":{"fabric":"token-ring"}}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var sc experiments.ScenarioSpec
		if err := json.Unmarshal([]byte(raw), &sc); err != nil {
			return // not a spec at all
		}
		if err := sc.Validate(); err != nil {
			return // rejected, which is the point
		}
		// Accepted specs are rare under fuzzing (the seeds mutate toward
		// them); when one passes, it must actually run — but only cheap
		// models, or the fuzzer times out on a legitimate big sweep.
		if sc.RowCount(true) > 64 {
			return
		}
		switch sc.Model {
		case "tech-curves", "fixed-budget", "node-arch":
			// Analytic models: safe to execute at fuzzing rates. The Monte
			// Carlo and packet-level models validate above but are too slow
			// to run per fuzz input.
		default:
			return
		}
		tab, err := sc.Run(true)
		if err != nil {
			return // execution errors are legal (e.g. FitLargest constraints)
		}
		if len(tab.Columns) != len(sc.Columns) {
			t.Fatalf("table has %d columns, spec declares %d", len(tab.Columns), len(sc.Columns))
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("interpreter produced an invalid table: %v", err)
		}
	})
}
