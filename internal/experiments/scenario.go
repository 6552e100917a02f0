// Scenario specs: experiments as data, not functions.
//
// A ScenarioSpec is a declarative value — machine shape, fabric presets,
// workload knobs, years, seeds, replication counts, sweep axes — and a
// small interpreter (ScenarioSpec.Run) that evaluates one into a *Table.
// The parameters live in the spec; the physics lives in a named row
// model (scenario_models.go) the spec points at. The split is what the
// rest of the repository needs: the CLI can dump a spec as JSON
// (-describe), the golden corpus and the internal/check invariants
// attach to the spec's declared columns and sweep instead of parallel
// hand-kept lists, and sweeps are data the mc pool can shard at any
// axis. The JSON form is the wire format the future `northstar serve`
// daemon accepts (ROADMAP item 1).
//
// Migration state lives in scenarios.go (the spec inventory) and
// EXPERIMENTS.md ("Scenario specs"): E1–E5, E5b, E6b, E7, E9, and E10
// run through the interpreter; the rest are still bespoke functions.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"northstar/internal/mc"
)

// ScenarioSpec declares one experiment as data. Zero code is attached:
// Model names a row kernel in the scenario-model registry, Sweep names
// the axes the interpreter iterates (row axes produce one table row per
// point of their cartesian product, in declaration order with the last
// axis fastest), and Params/Quick carry every numeric knob in full and
// quick mode. The JSON encoding round-trips losslessly: describe →
// parse → Run reproduces the committed golden table byte for byte.
type ScenarioSpec struct {
	// ID is the suite identifier (E1, E7, …), also the golden file name.
	ID string `json:"id"`
	// Name is the short suite-listing title ("interconnect microbenchmarks").
	Name string `json:"name"`
	// Title is the table caption. {param} tokens expand to the resolved
	// value of that parameter in the active mode ("P={p}" → "P=64").
	Title string `json:"title"`
	// Model names the row kernel in the scenario-model registry.
	Model string `json:"model"`
	// Columns is the table header, pinned here so internal/check can
	// derive its schema invariant from the spec instead of a parallel list.
	Columns []string `json:"columns"`
	// Notes are carried onto the table verbatim.
	Notes []string `json:"notes,omitempty"`
	// Seed is the base RNG seed for every stochastic model; replications
	// derive substreams from it (see internal/stats).
	Seed int64 `json:"seed,omitempty"`
	// Params are the full-mode numeric knobs (node counts, replication
	// counts, budgets, shape parameters). The model declares which names
	// it requires and their legal ranges; Validate enforces both.
	Params map[string]float64 `json:"params,omitempty"`
	// Quick overrides a subset of Params in quick (CI) mode.
	Quick map[string]float64 `json:"quick,omitempty"`
	// Options are the string-valued knobs: fabric preset names,
	// node-architecture names. Validated against the model's declaration.
	Options map[string]string `json:"options,omitempty"`
	// Sweep is the axis list, matching the model's declaration in name
	// and order. Row axes span table rows; Cols axes are consumed inside
	// a row (e.g. E5b's eager-limit columns).
	Sweep []Axis `json:"sweep,omitempty"`
	// Cost is the scheduling hint forwarded to Spec.Cost: measured
	// full-mode wall seconds on the reference host.
	Cost float64 `json:"cost,omitempty"`
}

// Axis is one sweep dimension: a name and its string-encoded values
// (fabric names, byte sizes, years — the model's axis kind says how each
// value parses). Quick, when non-empty, replaces Values in quick mode;
// Cols marks an axis that spans table columns instead of rows, which
// keeps the header mode-independent, so a Cols axis may not set Quick.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
	Quick  []string `json:"quick,omitempty"`
	Cols   bool     `json:"cols,omitempty"`
}

// values returns the axis values for the mode.
func (a Axis) values(quick bool) []string {
	if quick && len(a.Quick) > 0 {
		return a.Quick
	}
	return a.Values
}

// params returns the resolved parameter map for the mode: Params with
// Quick overrides applied on top in quick mode.
func (s *ScenarioSpec) params(quick bool) map[string]float64 {
	merged := make(map[string]float64, len(s.Params))
	for k, v := range s.Params {
		merged[k] = v
	}
	if quick {
		for k, v := range s.Quick {
			merged[k] = v
		}
	}
	return merged
}

// RowCount returns the number of table rows the spec produces in the
// given mode: the product of its row axes' value counts.
func (s *ScenarioSpec) RowCount(quick bool) int {
	n := 1
	for _, ax := range s.Sweep {
		if !ax.Cols {
			n *= len(ax.values(quick))
		}
	}
	return n
}

// MinRows returns the smaller of the quick- and full-mode row counts —
// the floor an invariant can demand of the table in either mode.
func (s *ScenarioSpec) MinRows() int {
	if q, f := s.RowCount(true), s.RowCount(false); q < f {
		return q
	} else {
		return f
	}
}

// Validate checks the spec against its model's declaration: the model
// exists, the sweep matches the declared axes in name, order, and value
// kind, every declared parameter and option is present, in range, and
// finite, and the declared columns match the model's row width. A spec
// that validates runs without panicking; a hostile spec — unknown fabric
// names, absurd node counts, empty sweep axes, NaN parameters — errors
// here instead.
func (s *ScenarioSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("experiments: nil scenario spec")
	}
	if s.ID == "" {
		return fmt.Errorf("experiments: scenario spec has no id")
	}
	if s.Name == "" || s.Title == "" {
		return fmt.Errorf("experiments: scenario %s needs both name and title", s.ID)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("experiments: scenario %s declares no columns", s.ID)
	}
	m, ok := scenarioModels[s.Model]
	if !ok {
		return fmt.Errorf("experiments: scenario %s names unknown model %q", s.ID, s.Model)
	}
	if err := s.validateSweep(m); err != nil {
		return err
	}
	if err := s.validateParams(m); err != nil {
		return err
	}
	if err := s.validateOptions(m); err != nil {
		return err
	}
	if w := m.rowWidth(s); w != len(s.Columns) {
		return fmt.Errorf("experiments: scenario %s declares %d columns but model %q produces %d cells per row",
			s.ID, len(s.Columns), s.Model, w)
	}
	if err := s.validateTitle(); err != nil {
		return err
	}
	return nil
}

func (s *ScenarioSpec) validateSweep(m *scenarioModel) error {
	if len(s.Sweep) != len(m.axes) {
		return fmt.Errorf("experiments: scenario %s has %d sweep axes, model %q declares %d",
			s.ID, len(s.Sweep), s.Model, len(m.axes))
	}
	for i, def := range m.axes {
		ax := s.Sweep[i]
		if ax.Name != def.name {
			return fmt.Errorf("experiments: scenario %s sweep axis %d is %q, model %q declares %q",
				s.ID, i, ax.Name, s.Model, def.name)
		}
		if ax.Cols != def.cols {
			return fmt.Errorf("experiments: scenario %s axis %q cols=%v, model declares cols=%v",
				s.ID, ax.Name, ax.Cols, def.cols)
		}
		if ax.Cols && len(ax.Quick) > 0 {
			return fmt.Errorf("experiments: scenario %s column axis %q may not set quick values (the header is mode-independent)",
				s.ID, ax.Name)
		}
		for _, set := range [][]string{ax.Values, ax.Quick} {
			if set == nil {
				continue
			}
			if len(set) == 0 {
				return fmt.Errorf("experiments: scenario %s axis %q has an empty value set", s.ID, ax.Name)
			}
			for _, v := range set {
				if err := def.kind.check(v, def.lo, def.hi); err != nil {
					return fmt.Errorf("experiments: scenario %s axis %q: %w", s.ID, ax.Name, err)
				}
			}
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("experiments: scenario %s axis %q has no values", s.ID, ax.Name)
		}
	}
	return nil
}

func (s *ScenarioSpec) validateParams(m *scenarioModel) error {
	declared := make(map[string]paramDef, len(m.params))
	for _, pd := range m.params {
		declared[pd.name] = pd
	}
	for name := range s.Params {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("experiments: scenario %s sets parameter %q, which model %q does not declare",
				s.ID, name, s.Model)
		}
	}
	for name := range s.Quick {
		if _, ok := s.Params[name]; !ok {
			return fmt.Errorf("experiments: scenario %s quick-overrides %q without a full-mode value", s.ID, name)
		}
	}
	for _, mode := range []map[string]float64{s.params(false), s.params(true)} {
		for _, pd := range m.params {
			v, ok := mode[pd.name]
			if !ok {
				return fmt.Errorf("experiments: scenario %s is missing required parameter %q", s.ID, pd.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("experiments: scenario %s parameter %q is not finite", s.ID, pd.name)
			}
			if v < pd.lo || v > pd.hi {
				return fmt.Errorf("experiments: scenario %s parameter %q = %g outside [%g, %g]",
					s.ID, pd.name, v, pd.lo, pd.hi)
			}
			if pd.integer && v != math.Trunc(v) {
				return fmt.Errorf("experiments: scenario %s parameter %q = %g must be an integer", s.ID, pd.name, v)
			}
		}
	}
	return nil
}

func (s *ScenarioSpec) validateOptions(m *scenarioModel) error {
	declared := make(map[string]axisKind, len(m.options))
	for _, od := range m.options {
		declared[od.name] = od.kind
	}
	for name := range s.Options {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("experiments: scenario %s sets option %q, which model %q does not declare",
				s.ID, name, s.Model)
		}
	}
	for _, od := range m.options {
		v, ok := s.Options[od.name]
		if !ok {
			return fmt.Errorf("experiments: scenario %s is missing required option %q", s.ID, od.name)
		}
		if err := od.kind.check(v, 0, 0); err != nil {
			return fmt.Errorf("experiments: scenario %s option %q: %w", s.ID, od.name, err)
		}
	}
	return nil
}

// validateTitle checks that every {token} in the title names a declared
// parameter, so expansion can never leave a hole in the rendered caption.
func (s *ScenarioSpec) validateTitle() error {
	rest := s.Title
	for {
		_, after, ok := strings.Cut(rest, "{")
		if !ok {
			return nil
		}
		token, tail, ok := strings.Cut(after, "}")
		if !ok {
			return fmt.Errorf("experiments: scenario %s title has an unterminated {token}", s.ID)
		}
		if _, ok := s.Params[token]; !ok {
			return fmt.Errorf("experiments: scenario %s title token {%s} names no parameter", s.ID, token)
		}
		rest = tail
	}
}

// expandTitle substitutes {param} tokens with the mode's resolved value,
// formatted minimally (16 renders as "16", 0.5 as "0.5").
func (s *ScenarioSpec) expandTitle(params map[string]float64) string {
	title := s.Title
	for name, v := range params {
		token := "{" + name + "}"
		if strings.Contains(title, token) {
			title = strings.ReplaceAll(title, token, strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	return title
}

// scenarioEnv is the resolved view of a spec one interpretation runs
// under: the mode's parameters plus accessors for axes and options.
// Models read it; they never touch the raw spec maps.
type scenarioEnv struct {
	spec   *ScenarioSpec
	quick  bool
	params map[string]float64
}

// param returns the resolved parameter. Validate guarantees presence for
// every declared name, so a miss is a model-programming error.
func (e *scenarioEnv) param(name string) float64 {
	v, ok := e.params[name]
	if !ok {
		panic(fmt.Sprintf("experiments: model for %s read undeclared parameter %q", e.spec.ID, name))
	}
	return v
}

func (e *scenarioEnv) intParam(name string) int { return int(e.param(name)) }

// option returns the resolved string option, with the same contract as param.
func (e *scenarioEnv) option(name string) string {
	v, ok := e.spec.Options[name]
	if !ok {
		panic(fmt.Sprintf("experiments: model for %s read undeclared option %q", e.spec.ID, name))
	}
	return v
}

// axis returns the mode's values for the named sweep axis.
func (e *scenarioEnv) axis(name string) []string {
	for _, ax := range e.spec.Sweep {
		if ax.Name == name {
			return ax.values(e.quick)
		}
	}
	panic(fmt.Sprintf("experiments: model for %s read undeclared axis %q", e.spec.ID, name))
}

// axisPoint is one point of the row-axis cartesian product: the value of
// every row axis at this table row.
type axisPoint struct {
	names  []string
	values []string
}

func (pt axisPoint) value(name string) string {
	for i, n := range pt.names {
		if n == name {
			return pt.values[i]
		}
	}
	panic(fmt.Sprintf("experiments: row read undeclared axis %q", name))
}

func (pt axisPoint) intValue(name string) int {
	v, err := strconv.Atoi(pt.value(name))
	if err != nil {
		panic(fmt.Sprintf("experiments: axis %q value %q is not an integer (Validate should have rejected it)", name, pt.value(name)))
	}
	return v
}

func (pt axisPoint) int64Value(name string) int64 {
	v, err := strconv.ParseInt(pt.value(name), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("experiments: axis %q value %q is not an integer (Validate should have rejected it)", name, pt.value(name)))
	}
	return v
}

func (pt axisPoint) floatValue(name string) float64 {
	v, err := strconv.ParseFloat(pt.value(name), 64)
	if err != nil {
		panic(fmt.Sprintf("experiments: axis %q value %q is not numeric (Validate should have rejected it)", name, pt.value(name)))
	}
	return v
}

// points builds the row-axis cartesian product in declaration order, the
// last row axis varying fastest — the row order every migrated
// experiment's golden table pins.
func (s *ScenarioSpec) points(quick bool) []axisPoint {
	var names []string
	var sets [][]string
	for _, ax := range s.Sweep {
		if ax.Cols {
			continue
		}
		names = append(names, ax.Name)
		sets = append(sets, ax.values(quick))
	}
	total := 1
	for _, set := range sets {
		total *= len(set)
	}
	out := make([]axisPoint, 0, total)
	var rec func(depth int, acc []string)
	rec = func(depth int, acc []string) {
		if depth == len(sets) {
			out = append(out, axisPoint{names: names, values: append([]string(nil), acc...)})
			return
		}
		for _, v := range sets[depth] {
			rec(depth+1, append(acc, v))
		}
	}
	rec(0, nil)
	return out
}

// Run interprets the spec in the given mode and returns its table. Rows
// of row-independent models are sharded across the default mc pool —
// each row's work is a pure function of the spec, so the bytes are
// identical at any pool width — while models with shared per-run state
// (sequential) evaluate rows in order against the state their setup
// built. Either way rows land in sweep order.
func (s *ScenarioSpec) Run(quick bool) (*Table, error) {
	return s.RunOn(mc.Default(), quick)
}

// RunOn is Run on an explicit mc pool: the caller owns the CPU budget.
// `northstar serve` uses this to run request-scoped interpretations on
// a server-owned pool instead of the process default, so concurrent
// requests share one bounded set of helpers. A nil pool runs rows
// inline on the calling goroutine; the bytes are identical either way.
func (s *ScenarioSpec) RunOn(p *mc.Pool, quick bool) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := scenarioModels[s.Model]
	env := &scenarioEnv{spec: s, quick: quick, params: s.params(quick)}
	pts := s.points(quick)
	t := &Table{
		ID:      s.ID,
		Title:   s.expandTitle(env.params),
		Columns: append([]string(nil), s.Columns...),
		Notes:   append([]string(nil), s.Notes...),
	}
	addRow := func(cells []any) error {
		if len(cells) != len(t.Columns) {
			return fmt.Errorf("experiments: scenario %s model %q returned %d cells for %d columns",
				s.ID, s.Model, len(cells), len(t.Columns))
		}
		t.AddRow(cells...)
		return nil
	}
	if m.sequential || m.setup != nil {
		var state any
		if m.setup != nil {
			st, err := m.setup(env)
			if err != nil {
				return nil, err
			}
			state = st
		}
		for _, pt := range pts {
			cells, err := m.row(env, state, pt)
			if err != nil {
				return nil, err
			}
			if err := addRow(cells); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	rows := make([][]any, len(pts))
	errs := make([]error, len(pts))
	mc.ForEach(p, len(pts), func(i int) {
		rows[i], errs[i] = m.row(env, nil, pts[i])
	})
	for i := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := addRow(rows[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
