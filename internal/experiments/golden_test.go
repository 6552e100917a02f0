package experiments_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"northstar/internal/check"
	"northstar/internal/experiments"
)

// -update regenerates the golden corpus from live quick-mode output and
// rewrites the sha256 manifest. scripts/golden.sh wraps it together with
// the full-mode results/ refresh.
var update = flag.Bool("update", false, "rewrite testdata/golden from live output")

const (
	goldenDir    = "testdata/golden"
	manifestName = "MANIFEST.sha256"
)

func goldenPath(id string) string { return filepath.Join(goldenDir, id+".table") }

// runQuickSuite executes the whole suite in quick mode and returns one
// table per spec, failing the test on any spec error.
func runQuickSuite(t *testing.T) []*experiments.Table {
	t.Helper()
	tables, err := experiments.RunSuite(io.Discard, experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestGoldenCorpus pins every experiment's quick-mode table
// byte-for-byte against testdata/golden/<ID>.table. Any drift — a
// reformatted float, a reordered row, a changed sweep — fails with the
// first differing line. Intentional changes regenerate the corpus with
//
//	go test ./internal/experiments -run Golden -update
//
// (or scripts/golden.sh, which also refreshes results/).
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	specs := experiments.All()
	tables := runQuickSuite(t)

	if *update {
		updateCorpus(t, specs, tables)
		return
	}
	for i, s := range specs {
		want, err := os.ReadFile(goldenPath(s.ID))
		if err != nil {
			t.Errorf("%s: no golden file (run `go test ./internal/experiments -run Golden -update`): %v", s.ID, err)
			continue
		}
		got := tables[i].String()
		if got != string(want) {
			t.Errorf("%s: quick output drifted from golden corpus at line %d:\n got: %s\nwant: %s",
				s.ID, diffLine(got, string(want)), firstDiffContext(got, string(want)), firstDiffContext(string(want), got))
		}
	}
}

// TestGoldenManifest asserts the committed sha256 manifest matches the
// committed golden files exactly: every file listed with its hash, no
// unlisted files, no dangling entries. The manifest makes corpus drift
// reviewable — a PR that touches a table shows up as a one-line hash
// change per experiment.
func TestGoldenManifest(t *testing.T) {
	if *update {
		t.Skip("manifest being rewritten")
	}
	raw, err := os.ReadFile(filepath.Join(goldenDir, manifestName))
	if err != nil {
		t.Fatalf("no manifest (run -update): %v", err)
	}
	listed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed manifest line %q", line)
		}
		listed[name] = sum
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.table"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, f := range files {
		name := filepath.Base(f)
		seen[name] = true
		want, ok := listed[name]
		if !ok {
			t.Errorf("golden file %s not in manifest", name)
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(data); got != want {
			t.Errorf("%s: sha256 = %s, manifest says %s", name, got, want)
		}
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("manifest lists %s but the file does not exist", name)
		}
	}
	// One golden per suite spec, no strays from removed experiments.
	for _, s := range experiments.All() {
		if !seen[s.ID+".table"] {
			t.Errorf("suite spec %s has no golden file", s.ID)
		}
		delete(seen, s.ID+".table")
	}
	for name := range seen {
		t.Errorf("golden file %s names no experiment in the suite", name)
	}
}

// TestGoldenInvariants runs each experiment's declared invariants
// against the *committed* corpus file, parsed back into a table. This is
// independent of the generator: a hand-edited or merge-mangled golden
// fails here even though TestGoldenCorpus would fail in the other
// direction. It also proves check.ParseTable is lossless on every real
// table shape the suite produces.
func TestGoldenInvariants(t *testing.T) {
	if *update {
		t.Skip("corpus being rewritten")
	}
	for _, s := range experiments.All() {
		raw, err := os.ReadFile(goldenPath(s.ID))
		if err != nil {
			t.Errorf("%s: %v", s.ID, err)
			continue
		}
		tab, err := check.ParseTable(string(raw))
		if err != nil {
			t.Errorf("%s: golden does not parse: %v", s.ID, err)
			continue
		}
		if tab.ID != s.ID {
			t.Errorf("golden %s.table carries table ID %q", s.ID, tab.ID)
		}
		if rendered := tab.String(); rendered != string(raw) {
			t.Errorf("%s: parse/render round trip is lossy", s.ID)
		}
		if err := Apply(tab, s.ID, t); err != nil {
			t.Errorf("golden corpus violates declared invariants:\n%v", err)
		}
	}
}

// Apply wraps check.Apply and also fails if an experiment reaches this
// point with no declaration — the corpus must never grow unchecked
// entries.
func Apply(tab *experiments.Table, id string, t *testing.T) error {
	t.Helper()
	invs := check.For(id)
	if len(invs) == 0 {
		t.Errorf("%s has no declared invariants", id)
	}
	return check.Apply(tab, invs)
}

// updateCorpus rewrites every golden file and the manifest from live
// output, and deletes goldens for experiments no longer in the suite.
func updateCorpus(t *testing.T, specs []experiments.Spec, tables []*experiments.Table) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var manifest []string
	keep := make(map[string]bool)
	for i, s := range specs {
		data := []byte(tables[i].String())
		if err := os.WriteFile(goldenPath(s.ID), data, 0o644); err != nil {
			t.Fatal(err)
		}
		keep[s.ID+".table"] = true
		manifest = append(manifest, fmt.Sprintf("%s  %s.table", sha256Hex(data), s.ID))
	}
	stale, err := filepath.Glob(filepath.Join(goldenDir, "*.table"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stale {
		if !keep[filepath.Base(f)] {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
			t.Logf("removed stale golden %s", f)
		}
	}
	sort.Strings(manifest)
	if err := os.WriteFile(filepath.Join(goldenDir, manifestName),
		[]byte(strings.Join(manifest, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %d goldens + %s", len(specs), manifestName)
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// diffLine returns the 1-based line number of the first difference.
func diffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// firstDiffContext returns a's line at the first difference against b.
func firstDiffContext(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i]
		}
	}
	if len(al) > len(bl) {
		return al[len(bl)]
	}
	return "<end of output>"
}
