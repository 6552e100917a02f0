// Command experiments regenerates the evaluation suite E1-E12 (see
// DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments                   # run everything, parallel across CPUs
//	experiments -par 1            # one at a time (same bytes, slower)
//	experiments -par 4            # bounded worker pool
//	experiments -quick            # CI-scale sweeps
//	experiments -id E7            # one experiment
//	experiments -describe E7      # dump E7's ScenarioSpec as JSON and exit
//	experiments -csv out/         # also write one CSV per table into out/
//	experiments -progress         # live per-spec status lines on stderr
//	experiments -trace t.json     # Chrome trace_event JSON (Perfetto)
//	experiments -metrics m.json   # metrics snapshot JSON
//	experiments -cpuprofile p.out # pprof CPU profile of the run
//	experiments -memprofile m.out # pprof heap profile after the run
//	experiments -spec-timeout 60s # abandon an experiment stuck past its budget
//	experiments -faultinject      # dev/CI: append specs that panic, hang, error
//
// Tables always print in suite order (E1 … X7) regardless of -par; every
// number in them is virtual time, so the bytes are identical for any
// worker count — and for any combination of observability flags, which
// write only to their own files and stderr. If an experiment fails — by
// returning an error, panicking, producing a malformed table, or
// exceeding -spec-timeout — the remaining experiments still run and
// print, the failure (with its stack or goroutine dump) is reported on
// stderr, and the exit status is non-zero. A write error on stdout (for
// example a broken pipe) is likewise fatal rather than silently
// truncating tables.
//
// -describe prints the declarative ScenarioSpec of a migrated experiment
// as indented JSON — the wire format a scenario service accepts — and
// exits without running anything. The JSON round-trips: parsing it back
// and calling Run reproduces the experiment's table byte for byte (CI
// proves this for every migrated ID). Experiments not yet migrated to
// specs report an error.
//
// -faultinject appends the synthetic misbehaving specs from
// experiments.FaultSpecs after the genuine suite so CI can prove the
// isolation guarantees above: the run must exit 1 while stdout stays
// byte-identical to a healthy run. Because one of those specs hangs
// forever, -faultinject defaults -spec-timeout to 10s when it is unset.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/mc"
	"northstar/internal/obs"
)

func main() {
	// Without a handler, Go re-raises SIGPIPE on a broken stdout and the
	// process dies mid-table with no diagnostic. Catching it turns the
	// broken pipe into an EPIPE write error that propagates through
	// Table.Fprint and the runner to a clean non-zero exit.
	signal.Notify(make(chan os.Signal, 1), syscall.SIGPIPE)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind the process boundary: it parses args,
// runs the suite, and returns the exit status, writing tables to stdout
// and diagnostics to stderr. Keeping it free of os.Exit and package-level
// flag state makes the exit-code contract — 0 clean, 1 failed run or bad
// arguments, 2 flag errors — directly testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink sweeps for fast runs")
	id := fs.String("id", "", "run only this experiment (e.g. E7)")
	describe := fs.String("describe", "", "print this experiment's ScenarioSpec as JSON and exit")
	csvDir := fs.String("csv", "", "also write CSV files into this directory")
	par := fs.Int("par", 0, "worker pool size; 0 = one per CPU, 1 = one experiment at a time")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON trace to this file (open in Perfetto)")
	metricsFile := fs.String("metrics", "", "write a metrics snapshot JSON to this file")
	progress := fs.Bool("progress", false, "print live per-spec status lines to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	specTimeout := fs.Duration("spec-timeout", 0, "per-experiment wall-clock budget; 0 disables the watchdog")
	faultinject := fs.Bool("faultinject", false, "dev/CI: append synthetic misbehaving specs (implies -spec-timeout 10s if unset)")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the diagnostic and usage
	}
	// The -par default of 0 means "one worker per CPU", but that is a
	// default, not a request: an explicit -par below 1 is a typo'd worker
	// count, and silently running it at full parallelism would hide it.
	parSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "par" {
			parSet = true
		}
	})
	if parSet && *par < 1 {
		fmt.Fprintf(stderr, "experiments: -par %d: worker count must be at least 1\n", *par)
		return 2
	}

	if *describe != "" {
		sc, err := experiments.ScenarioByID(*describe)
		if err != nil {
			return fail(stderr, err)
		}
		enc, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", enc); err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(stderr, err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	// Observability is opt-in: with no obs flags the runner sees a nil
	// observer and the kernels keep their nil probes.
	var observer *obs.SuiteObserver
	var trace *obs.Trace
	if *traceFile != "" || *metricsFile != "" || *progress {
		if *traceFile != "" {
			trace = obs.NewTrace()
		}
		var progressW io.Writer
		if *progress {
			progressW = stderr
		}
		observer = obs.NewSuiteObserver(nil, trace, progressW)
	}

	specs := experiments.All()
	if *id != "" {
		s, err := experiments.ByID(*id)
		if err != nil {
			return fail(stderr, err)
		}
		specs = []experiments.Spec{s}
	}
	if *faultinject {
		// The fault specs ride after the genuine suite: they all fail
		// without printing, so stdout stays byte-identical to a healthy
		// run while the exit status proves the isolation. FI-HANG parks
		// forever, so the watchdog must be armed.
		specs = append(specs, experiments.FaultSpecs()...)
		if *specTimeout <= 0 {
			*specTimeout = 10 * time.Second
		}
	}
	// Budget the intra-experiment Monte Carlo pool against the suite
	// workers: the two levels of parallelism share one CPU budget, so a
	// -par that saturates the host leaves no pool helpers (and vice
	// versa -par 1 hands the spare CPUs to the pool).
	// Every Monte Carlo result is bit-identical for any pool size, so
	// this only moves wall clock, never numbers.
	suiteWorkers := *par
	if suiteWorkers <= 0 {
		suiteWorkers = runtime.GOMAXPROCS(0)
	}
	mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - suiteWorkers)

	opts := experiments.Options{
		Quick:       *quick,
		Workers:     *par,
		Observer:    observer,
		SpecTimeout: *specTimeout,
	}
	if observer != nil {
		opts.Summary = stderr
	}
	tables, runErr := experiments.RunSpecs(stdout, specs, opts)

	status := 0
	if runErr != nil {
		fmt.Fprintln(stderr, "experiments:", runErr)
		status = 1
	}
	if *csvDir != "" {
		for _, t := range tables {
			if t == nil {
				continue // failed experiment; reported via runErr
			}
			if err := writeCSV(*csvDir, t); err != nil {
				return fail(stderr, err)
			}
		}
	}
	if trace != nil {
		if err := writeFileWith(*traceFile, trace.WriteJSON); err != nil {
			return fail(stderr, err)
		}
	}
	if observer != nil && *metricsFile != "" {
		if err := writeFileWith(*metricsFile, observer.Registry().WriteJSON); err != nil {
			return fail(stderr, err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(stderr, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fail(stderr, err)
		}
	}
	return status
}

func writeCSV(dir string, t *experiments.Table) error {
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "experiments:", err)
	return 1
}
