package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// These tests live inside the package to reach the interpreter's
// model-bug guards: the panics behind scenarioEnv and axisPoint fire
// only when a model's code reads names its declaration never mentioned,
// which no registered model does — so the guards are exercised here,
// directly, with a deliberately mismatched environment.

func wantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not mention %q", r, substr)
		}
	}()
	fn()
}

func TestScenarioEnvGuards(t *testing.T) {
	sc, err := ScenarioByID("E6b")
	if err != nil {
		t.Fatal(err)
	}
	env := &scenarioEnv{spec: sc, quick: true, params: sc.params(true)}
	if got := env.intParam("p"); got != 16 {
		t.Errorf("intParam(p) = %d in quick mode, want 16", got)
	}
	wantPanic(t, `undeclared parameter "warp"`, func() { env.param("warp") })
	wantPanic(t, `undeclared option "color"`, func() { env.option("color") })
	wantPanic(t, `undeclared axis "sizes"`, func() { env.axis("sizes") })
}

func TestAxisPointGuards(t *testing.T) {
	pt := axisPoint{names: []string{"bytes", "label"}, values: []string{"1024", "big"}}
	if pt.intValue("bytes") != 1024 || pt.int64Value("bytes") != 1024 || pt.floatValue("bytes") != 1024 {
		t.Error("numeric accessors disagree on a plain integer value")
	}
	wantPanic(t, `undeclared axis "nodes"`, func() { pt.value("nodes") })
	wantPanic(t, "not an integer", func() { pt.intValue("label") })
	wantPanic(t, "not an integer", func() { pt.int64Value("label") })
	wantPanic(t, "not numeric", func() { pt.floatValue("label") })
}

func TestMustScenarioUnknownPanics(t *testing.T) {
	wantPanic(t, "E99", func() { mustScenario("E99") })
	// The happy path is what All() runs; pin the wiring once here too.
	s := mustScenario("E1")
	if s.ID != "E1" || s.Run == nil {
		t.Errorf("mustScenario(E1) = %+v", s)
	}
}

func TestScenarioByIDUnknown(t *testing.T) {
	if _, err := ScenarioByID("E99"); err == nil {
		t.Error("ScenarioByID accepted an unregistered ID")
	}
}

// TestAxisKindCheck hits every kind's reject branch directly: the
// validator's per-value vocabulary for hostile specs.
func TestAxisKindCheck(t *testing.T) {
	cases := []struct {
		kind   axisKind
		v      string
		lo, hi float64
		want   string // "" = accept
	}{
		{kindInt, "64", 1, 1e6, ""},
		{kindInt, "4.5", 1, 1e6, "not an integer"},
		{kindInt, "9999999", 1, 1e6, "outside"},
		{kindFloat, "2008.5", 2000, 2020, ""},
		{kindFloat, "soon", 2000, 2020, "not a finite number"},
		{kindFloat, "NaN", 2000, 2020, "not a finite number"},
		{kindFloat, "1999", 2000, 2020, "outside"},
		{kindFabric, "infiniband-4x", 0, 0, ""},
		{kindFabric, "token-ring", 0, 0, "unknown fabric"},
		{kindArch, "blade", 0, 0, ""},
		{kindArch, "abacus", 0, 0, "unknown node architecture"},
		{kindApp, "hpl", 0, 0, ""},
		{kindApp, "doom", 0, 0, "unknown application"},
	}
	for _, tc := range cases {
		err := tc.kind.check(tc.v, tc.lo, tc.hi)
		if tc.want == "" {
			if err != nil {
				t.Errorf("kind %d rejected %q: %v", tc.kind, tc.v, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("kind %d value %q: error %v, want mention of %q", tc.kind, tc.v, err, tc.want)
		}
	}
}

func TestAppByNameErrors(t *testing.T) {
	if _, err := appByName("ep", 0); err == nil {
		t.Error("appByName accepted scale 0")
	}
	if _, err := appByName("doom", 1); err == nil {
		t.Error("appByName accepted an unknown application")
	}
}
