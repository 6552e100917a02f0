package check

import (
	"io"
	"testing"

	"northstar/internal/experiments"
)

// The declared invariants must hold on live quick-mode output — the same
// tables the golden corpus pins byte-for-byte. Running them here (and
// not only against the corpus) means a code change that breaks a
// physical bound fails this test directly, with the invariant named,
// even before anyone looks at the golden diff.
func TestLiveSuiteInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	specs := experiments.All()
	tables, err := experiments.RunSuite(io.Discard, experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if tables[i] == nil {
			t.Errorf("%s produced no table", s.ID)
			continue
		}
		if err := Apply(tables[i], For(s.ID)); err != nil {
			t.Errorf("live quick output violates declared invariants:\n%v", err)
		}
	}
}
