package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRun is one pinned invocation: its stdout must equal
// testdata/<name>.golden byte for byte. A golden is the CLI's own
// output, regenerated after an intended change with
//
//	go run ./cmd/northstar <args> > cmd/northstar/testdata/<name>.golden
type goldenRun struct {
	name string
	args []string
}

// goldenRuns covers every subcommand but serve at its defaults, topo on
// every kind healthy and with three core links failed, and a packet-level
// simulate on every kind: the outputs routing changes would move.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, cmd := range []string{"project", "simulate", "schedule", "faults", "explore", "topo", "frontier"} {
		runs = append(runs, goldenRun{cmd, []string{cmd}})
	}
	for _, kind := range []string{"crossbar", "fattree", "torus2d", "torus3d", "hypercube"} {
		for _, f := range []string{"0", "3"} {
			runs = append(runs, goldenRun{"topo-" + kind + "-failures-" + f, []string{"topo", "-kind", kind, "-failures", f}})
		}
		runs = append(runs, goldenRun{"simulate-packet-" + kind, []string{"simulate", "-packet", "-topo", kind}})
	}
	return runs
}

func TestGoldenOutputs(t *testing.T) {
	for _, r := range goldenRuns() {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(r.args, &stdout, &stderr); code != 0 {
				t.Fatalf("northstar %s: exit %d, stderr:\n%s", strings.Join(r.args, " "), code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", r.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("northstar %s: stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s",
					strings.Join(r.args, " "), r.name, stdout.String(), want)
			}
		})
	}
}

// TestExitStatus pins the process contract: 2 with the usage text for a
// missing or unknown command and for bad flags, 0 for a subcommand's -h,
// and 1 with a "northstar:" diagnostic when a subcommand fails. None of
// them writes to stdout.
func TestExitStatus(t *testing.T) {
	// Traces whose non-finite times once panicked the scheduler.
	dir := t.TempDir()
	nanSubmit := filepath.Join(dir, "nan-submit.swf")
	infRun := filepath.Join(dir, "inf-run.swf")
	for path, trace := range map[string]string{
		nanSubmit: "1 NaN -1 60 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
		infRun:    "1 0 -1 60 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1\n2 10 -1 Inf 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
	} {
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"bogus"}, 2, `northstar: unknown command "bogus"`},
		{nil, 2, "usage: northstar <command>"},
		{[]string{"help"}, 2, "usage: northstar <command>"},
		{[]string{"topo", "-h"}, 0, "Usage of topo"},
		{[]string{"topo", "-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"project", "-scenario", "nope"}, 1, `northstar: unknown scenario "nope"`},
		{[]string{"topo", "-kind", "nope"}, 1, `northstar: machine: unknown topology "nope"`},
		{[]string{"topo", "-failures", "-1"}, 1, "northstar: -failures -1: a failure count cannot be negative"},
		{[]string{"faults", "-delta", "0"}, 1, "northstar: -delta 0: the checkpoint cost must be positive"},
		{[]string{"faults", "-delta", "-5"}, 1, "northstar: -delta -5: the checkpoint cost must be positive"},
		{[]string{"faults", "-node-mtbf", "0"}, 1, "northstar: stats: exponential rate +Inf must be finite and positive"},
		{[]string{"faults", "-node-mtbf", "-1"}, 1, "northstar: stats: exponential rate"},
		{[]string{"faults", "-node-mtbf", "NaN"}, 1, "northstar: stats: exponential rate NaN must be finite and positive"},
		{[]string{"faults", "-nodes", "-5"}, 1, "northstar: fault: system needs nodes > 0"},
		{[]string{"faults", "-nodes", "0"}, 1, "northstar: fault: system needs nodes > 0"},
		{[]string{"faults", "-repair", "-1"}, 1, "northstar: stats: constant -3600 must be finite and non-negative"},
		{[]string{"faults", "-work", "0"}, 1, "northstar: fault: invalid checkpoint config"},
		{[]string{"faults", "-nodes", "100000000"}, 1, "northstar: fault: no interval completes within the wall-clock cap"},
		{[]string{"schedule", "-load", "NaN"}, 1, "northstar: sched: offered load NaN out of (0, 2]"},
		{[]string{"schedule", "-swf", nanSubmit}, 1, "northstar: sched: swf line 1 field 2: \"NaN\" is not finite"},
		{[]string{"schedule", "-swf", infRun}, 1, "northstar: sched: swf line 2 field 4: \"Inf\" is not finite"},
		{[]string{"explore", "-target", "NaN"}, 1, "northstar: core: target NaN flop/s must be finite and positive"},
		{[]string{"explore", "-year", "NaN"}, 1, "northstar: core: no configuration feasible at NaN"},
		// Non-finite years once hung (cmpCores doubled forever), printed a
		// NaN machine before a rank panicked, or reported +Inf flop/s.
		{[]string{"simulate", "-arch", "smp-on-chip", "-year", "Inf", "-nodes", "4"}, 1, "northstar: node: year +Inf outside [1990, 2100]"},
		{[]string{"simulate", "-year", "NaN", "-nodes", "4"}, 1, "northstar: node: year NaN outside [1990, 2100]"},
		{[]string{"simulate", "-year", "1e9", "-nodes", "4"}, 1, "northstar: node: year 1e+09 outside [1990, 2100]"},
		// NaN flags once read as an empty answer or as no cap.
		{[]string{"project", "-from", "NaN"}, 1, "northstar: core: projection: node: year NaN outside [1990, 2100]"},
		{[]string{"project", "-to", "NaN"}, 1, "northstar: core: projection: node: year NaN outside [1990, 2100]"},
		{[]string{"project", "-power", "NaN"}, 1, "northstar: cluster: power cap NaN must be finite and non-negative"},
		{[]string{"frontier", "-year", "NaN"}, 1, "northstar: node: year NaN outside [1990, 2100]"},
		{[]string{"frontier", "-budget", "NaN"}, 1, "northstar: cluster: budget NaN must be finite and non-negative"},
		{[]string{"frontier", "-power", "NaN"}, 1, "northstar: cluster: power cap NaN must be finite and non-negative"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.stderr) || stdout.Len() != 0 {
			t.Errorf("northstar %q: exit %d, stdout %q, stderr %q; want exit %d and stderr containing %q",
				c.args, code, stdout.String(), stderr.String(), c.code, c.stderr)
		}
	}
}
