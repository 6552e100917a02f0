package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process:
// runParent re-executes its own binary, which under go test is this one.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(runChild(os.Args[2], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeRun runs one workload for a fraction of a second at testSizes
// and returns the exit status, the report and the result line.
func smokeRun(t *testing.T, root, workload string, trace bool) (int, report, result) {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		Workload: workload,
		Seed:     3,
		Duration: 200 * time.Millisecond,
		Trace:    trace,
		Root:     root,
		TraceDir: t.TempDir(),
		Small:    true,
	}
	var stdout, stderr bytes.Buffer
	code := runParent(cfg, spec, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: exit %d, want a report and a result line, got:\n%s\nstderr:\n%s", workload, code, stdout.String(), stderr.String())
	}
	var rep report
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Logf("%s stderr:\n%s", workload, stderr.String())
	}
	return code, rep, res
}

func checkNames(t *testing.T, workload string, defs []metricDef, got map[string]resultMetric) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.Name, m, d.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		code, rep, res := smokeRun(t, "..", w, false)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %d, result %+v, errors %v", w, code, res, rep.Errors)
		}
		checkNames(t, w, spec.EndToEnd, res.Metrics)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
		if rep.Record.Ops < 1 || rep.Record.NProc < 1 || len(rep.Record.SetupSeconds) != testSizes.setupReps {
			t.Errorf("%s: record %+v", w, rep.Record)
		}
	}
}

// A traced run reports every per-layer metric, whatever its workload,
// and its CPU shares sum to 1.
func TestSmokeTraced(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	code, rep, res := smokeRun(t, "..", "serve_hot", true)
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result correct=%v, errors %v", code, res.Correct, rep.Errors)
	}
	checkNames(t, "serve_hot", spec.PerLayer, res.Metrics)
	sum := 0.0
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "cpu.") {
			sum += m.Value
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	if _, err := os.Stat(rep.Record.TraceFile); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// A suite whose reference output does not match fails every pass: the
// run reports failed ops and exits non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	root := t.TempDir()
	ref, err := os.ReadFile(filepath.Join("..", suiteReferencePath))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(root, suiteReferencePath)
	if err := os.MkdirAll(filepath.Dir(corrupt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, append(ref, '!'), 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep, res := smokeRun(t, root, "suite", false)
	if code == 0 || res.Correct || rep.FailedOpsRatio <= 0 || res.Failed != res.Attempted {
		t.Errorf("exit %d, failed_ops_ratio %v, result %+v", code, rep.FailedOpsRatio, res)
	}
}
