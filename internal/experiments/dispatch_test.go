package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Dispatch must hand out specs longest-first (by the Cost hint), stable
// for ties, while the printed stream stays in suite order.
func TestDispatchOrderLPT(t *testing.T) {
	specs := []Spec{
		{ID: "a", Cost: 0.1},
		{ID: "b", Cost: 2.0},
		{ID: "c"}, // zero cost sorts last
		{ID: "d", Cost: 0.1},
		{ID: "e", Cost: 5.0},
	}
	got := dispatchOrder(specs)
	want := []int{4, 1, 0, 3, 2} // e, b, a, d (stable tie), c
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatchOrder = %v, want %v", got, want)
		}
	}
}

func TestAllSpecsCarryCostHints(t *testing.T) {
	for _, s := range All() {
		if s.Cost <= 0 {
			t.Errorf("%s: Cost hint is %v; every suite spec should carry its measured wall time", s.ID, s.Cost)
		}
	}
}

// LPT dispatch must not perturb the output stream: a run prints in
// suite order regardless of the dispatch permutation, at one worker (which
// runs the specs last-to-first here) and at four.
func TestLPTDispatchKeepsOutputOrder(t *testing.T) {
	mk := func(id string, cost float64) Spec {
		return Spec{ID: id, Title: id, Cost: cost,
			Run: func(bool) (*Table, error) {
				tb := &Table{ID: id, Title: id, Columns: []string{"v"}}
				tb.AddRow(id)
				return tb, nil
			}}
	}
	specs := []Spec{mk("s1", 0.001), mk("s2", 9), mk("s3", 0.5), mk("s4", 3)}
	var one, four bytes.Buffer
	if _, err := RunSpecs(&one, specs, Options{Quick: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecs(&four, specs, Options{Quick: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if want := "== s1"; !strings.HasPrefix(one.String(), want) {
		t.Errorf("one-worker output does not start with %q:\n%s", want, one.String())
	}
	if one.String() != four.String() {
		t.Errorf("four-worker output differs from one-worker output:\n%s\nvs\n%s", four.String(), one.String())
	}
}
