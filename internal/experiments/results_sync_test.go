package experiments_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"northstar/internal/check"
	"northstar/internal/experiments"
)

// resultsDir is the committed full-mode corpus at the repository root.
const resultsDir = "../../results"

// TestResultsSync asserts the committed results/ directory — one CSV per
// experiment plus the concatenated table stream in full_output.txt — is
// exactly what the suite produces in full mode today. Without this, the
// quick-mode golden corpus could be regenerated while the published
// full-mode numbers silently rot. scripts/golden.sh refreshes both.
//
// The full suite costs ~10 s of host time, so the test is skipped in
// -short mode and under the race detector (where it would cost minutes);
// CI covers the race-less path on every push, and the fast determinism
// tests already race-check the runner itself.
func TestResultsSync(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode suite is slow")
	}
	if raceEnabled {
		t.Skip("full-mode suite under the race detector adds minutes and no coverage")
	}
	specs := experiments.All()
	var stream bytes.Buffer
	tables, err := experiments.RunSuite(&stream, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}

	wantStream, err := os.ReadFile(filepath.Join(resultsDir, "full_output.txt"))
	if err != nil {
		t.Fatalf("no committed full output (run scripts/golden.sh): %v", err)
	}
	if !bytes.Equal(stream.Bytes(), wantStream) {
		t.Errorf("full-mode table stream drifted from results/full_output.txt (run scripts/golden.sh and review the diff)")
	}

	for i, s := range specs {
		var csv bytes.Buffer
		if err := tables[i].CSV(&csv); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		want, err := os.ReadFile(filepath.Join(resultsDir, s.ID+".csv"))
		if err != nil {
			t.Errorf("%s: no committed CSV: %v", s.ID, err)
			continue
		}
		if !bytes.Equal(csv.Bytes(), want) {
			t.Errorf("%s: full-mode CSV drifted from results/%s.csv (run scripts/golden.sh)", s.ID, s.ID)
		}
		// The declarations hold in full mode too: sweeps shrink between
		// modes, the science doesn't.
		if err := check.Apply(tables[i], check.For(s.ID)); err != nil {
			t.Errorf("full-mode output violates declared invariants:\n%v", err)
		}
	}
}
