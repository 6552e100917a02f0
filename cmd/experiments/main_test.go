package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"northstar/internal/experiments"
	"northstar/internal/obs"
)

// These tests exercise the command through run() exactly as a shell
// would — argv in, stdout/stderr/exit-status out — pinning the CLI
// contract: 0 clean, 1 failed run or bad arguments, 2 flag errors, and
// stdout that never changes shape based on diagnostics.

func runCmd(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestQuickSingleExperimentMatchesGolden(t *testing.T) {
	status, stdout, stderr := runCmd(t, "-quick", "-id", "E1")
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", "E1.table"))
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	if stdout != string(golden) {
		t.Errorf("-quick -id E1 stdout differs from the committed golden:\ngot:\n%s\nwant:\n%s", stdout, golden)
	}
}

func TestUnknownExperimentExits1(t *testing.T) {
	status, stdout, stderr := runCmd(t, "-id", "NOPE")
	if status != 1 {
		t.Fatalf("exit %d, want 1", status)
	}
	if stdout != "" {
		t.Errorf("bad -id printed tables:\n%s", stdout)
	}
	if !strings.Contains(stderr, "NOPE") {
		t.Errorf("stderr does not name the unknown experiment:\n%s", stderr)
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	status, stdout, stderr := runCmd(t, "-definitely-not-a-flag")
	if status != 2 {
		t.Fatalf("exit %d, want 2", status)
	}
	if stdout != "" {
		t.Errorf("flag error printed tables:\n%s", stdout)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Errorf("flag error did not print usage:\n%s", stderr)
	}
}

// -par defaults to 0 meaning one worker per CPU, but an *explicit*
// worker count below 1 is an error, not a request for the default.
func TestExplicitBadParRejected(t *testing.T) {
	for _, par := range []string{"0", "-3"} {
		status, stdout, stderr := runCmd(t, "-par", par, "-quick", "-id", "E1")
		if status != 2 {
			t.Errorf("-par %s: exit %d, want 2 (stderr: %s)", par, status, stderr)
		}
		if stdout != "" {
			t.Errorf("-par %s: tables printed despite rejected flags:\n%s", par, stdout)
		}
		if !strings.Contains(stderr, "at least 1") {
			t.Errorf("-par %s: stderr does not explain the rejection:\n%s", par, stderr)
		}
	}
	if status, _, stderr := runCmd(t, "-par", "2", "-quick", "-id", "E1"); status != 0 {
		t.Errorf("-par 2: exit %d, stderr:\n%s", status, stderr)
	}
}

// An observed run writes its telemetry beside an unchanged table stream:
// valid trace JSON, a metrics snapshot with one scope for the spec plus
// suite and neither a resources domain nor a retries counter, and a
// summary table on stderr with the documented columns.
func TestObservedRunWritesTelemetry(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	_, plain, _ := runCmd(t, "-quick", "-id", "E5")
	status, observed, stderr := runCmd(t, "-quick", "-id", "E5", "-progress",
		"-trace", tracePath, "-metrics", metricsPath)
	if status != 0 || observed != plain {
		t.Fatalf("exit %d, stdout changed: %t, stderr:\n%s", status, observed != plain, stderr)
	}
	if b, err := os.ReadFile(tracePath); err != nil || !json.Valid(b) {
		t.Errorf("trace is not valid JSON (err %v)", err)
	}
	var m obs.Snapshot
	b, err := os.ReadFile(metricsPath)
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var got []string
	for _, sc := range m.Scopes {
		got = append(got, sc.Name)
		for _, d := range sc.Domains {
			got = append(got, sc.Name+"/"+d.Name)
		}
		if _, ok := sc.Counters["retries"]; ok {
			t.Errorf("scope %s has a retries counter", sc.Name)
		}
	}
	if m.Schema != "northstar-metrics/v2" || strings.Join(got, " ") != "E5 E5/network suite" {
		t.Errorf("metrics %s with scopes and domains %v, want v2 with [E5 E5/network suite]", m.Schema, got)
	}
	header := ""
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "id ") {
			header = strings.Join(strings.Fields(line), " ")
		}
	}
	if header != "id wall events peak pending fastpath % status" {
		t.Errorf("summary header = %q\nstderr:\n%s", header, stderr)
	}
}

// -faultinject must exit 1 while leaving stdout byte-identical to the
// healthy run: the injected specs all fail in isolation, before printing.
func TestFaultInjectExits1WithIdenticalStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the FI-HANG watchdog")
	}
	_, healthy, _ := runCmd(t, "-quick", "-id", "E1")
	status, injected, stderr := runCmd(t, "-quick", "-id", "E1", "-faultinject", "-spec-timeout", "2s")
	if status != 1 {
		t.Fatalf("exit %d, want 1", status)
	}
	if injected != healthy {
		t.Errorf("fault-injected stdout differs from healthy run:\ngot:\n%s\nwant:\n%s", injected, healthy)
	}
	for _, id := range []string{"FI-ERR", "FI-PANIC", "FI-HANG"} {
		if !strings.Contains(stderr, id) {
			t.Errorf("stderr does not report %s:\n%s", id, stderr)
		}
	}
}

// TestDescribeEmitsValidJSON pins -describe's contract for every
// migrated experiment: exit 0, parseable JSON on stdout, nothing run.
func TestDescribeEmitsValidJSON(t *testing.T) {
	for _, sc := range experiments.Scenarios() {
		status, stdout, stderr := runCmd(t, "-describe", sc.ID)
		if status != 0 {
			t.Fatalf("-describe %s: exit %d, stderr:\n%s", sc.ID, status, stderr)
		}
		var parsed experiments.ScenarioSpec
		if err := json.Unmarshal([]byte(stdout), &parsed); err != nil {
			t.Fatalf("-describe %s output is not JSON: %v\n%s", sc.ID, err, stdout)
		}
		if parsed.ID != sc.ID || parsed.Model != sc.Model {
			t.Errorf("-describe %s returned spec for %q/%q", sc.ID, parsed.ID, parsed.Model)
		}
	}
}

// TestDescribeUnknownExits1 covers both a non-experiment and a bespoke
// experiment with no spec: neither has a wire form yet.
func TestDescribeUnknownExits1(t *testing.T) {
	for _, id := range []string{"NOPE", "E8"} {
		status, stdout, stderr := runCmd(t, "-describe", id)
		if status != 1 {
			t.Errorf("-describe %s: exit %d, want 1", id, status)
		}
		if stdout != "" {
			t.Errorf("-describe %s printed output:\n%s", id, stdout)
		}
		if !strings.Contains(stderr, id) {
			t.Errorf("-describe %s: stderr does not name it:\n%s", id, stderr)
		}
	}
}

// TestDescribeRoundTripMatchesGolden is the wire-format proof: the JSON
// a client reads back from -describe, parsed and run in quick mode,
// must reproduce the committed golden table byte for byte.
func TestDescribeRoundTripMatchesGolden(t *testing.T) {
	for _, sc := range experiments.Scenarios() {
		status, stdout, stderr := runCmd(t, "-describe", sc.ID)
		if status != 0 {
			t.Fatalf("-describe %s: exit %d, stderr:\n%s", sc.ID, status, stderr)
		}
		var parsed experiments.ScenarioSpec
		if err := json.Unmarshal([]byte(stdout), &parsed); err != nil {
			t.Fatal(err)
		}
		tab, err := parsed.Run(true)
		if err != nil {
			t.Fatalf("%s: parsed spec does not run: %v", sc.ID, err)
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", sc.ID+".table"))
		if err != nil {
			t.Fatalf("golden corpus missing: %v", err)
		}
		if got := tab.String(); got != string(golden) {
			t.Errorf("%s: describe → parse → run differs from the golden corpus:\ngot:\n%s\nwant:\n%s",
				sc.ID, got, golden)
		}
	}
}

// brokenWriter dies after n bytes, like a pipe whose reader went away.
type brokenWriter struct {
	n       int
	written int
}

func (b *brokenWriter) Write(p []byte) (int, error) {
	if b.written >= b.n {
		return 0, errors.New("broken pipe")
	}
	b.written += len(p)
	return len(p), nil
}

func TestBrokenStdoutExits1(t *testing.T) {
	var errb bytes.Buffer
	status := run([]string{"-quick", "-id", "E1"}, &brokenWriter{n: 10}, &errb)
	if status != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", status, errb.String())
	}
	if !strings.Contains(errb.String(), "broken pipe") {
		t.Errorf("stderr does not surface the write failure:\n%s", errb.String())
	}
}

func TestCSVOutputMatchesTable(t *testing.T) {
	dir := t.TempDir()
	status, _, stderr := runCmd(t, "-quick", "-id", "E1", "-csv", dir)
	if status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "E1.csv"))
	if err != nil {
		t.Fatalf("-csv wrote no E1.csv: %v", err)
	}
	if len(got) == 0 || !strings.HasPrefix(string(got), "year") {
		t.Errorf("E1.csv does not start with the header row:\n%s", got)
	}
}
