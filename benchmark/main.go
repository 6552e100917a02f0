// Command benchmark measures northstar end to end on four workloads and,
// in a separate traced run, layer by layer. See README.md.
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	bash benchmark/run.sh --workload suite --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh                         # every workload, untraced
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
//
// Each workload runs in fresh child processes of this binary, so peak
// RSS and GC state belong to one workload. An untraced run prints a
// report line (run record, sample counts, tail percentiles) and then,
// as the last line, {"correct","attempted","failed","metrics"} with
// every end-to-end metric of BENCHMARK.json; a traced run prints the
// per-layer metrics instead. Any failed op makes the exit status 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one workload run, passed from the parent to each child
// process as JSON.
type runConfig struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Duration  time.Duration `json:"duration"`
	Trace     bool          `json:"trace"`
	Root      string        `json:"root"`      // repository root: BENCHMARK.json, results/, goldens
	TraceDir  string        `json:"trace_dir"` // where a traced run writes its Chrome trace
	Small     bool          `json:"small"`     // testSizes instead of benchSizes
	SetupOnly bool          `json:"setup_only"`
}

func (c runConfig) sizes() sizes {
	if c.Small {
		return testSizes
	}
	return benchSizes
}

// childFlag marks a child process; its value is the JSON runConfig.
const childFlag = "-child"

// readyLine is what a child prints when setup is done; the parent times
// setup from process start to this line.
const readyLine = "ready"

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 2 && args[0] == childFlag {
		return runChild(args[1], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: suite, collectives_1k, serve_hot, serve_mixed, or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 0, "seconds each run measures; 0 means BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 for a traced run that reports the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of report lines: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 1, -trace 0 or 1, and no other arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = spec.workloadNames()
	}
	status := 0
	for _, name := range names {
		cfg := runConfig{
			Workload: name,
			Seed:     *seed,
			Duration: time.Duration(*seconds) * time.Second,
			Trace:    *trace == 1,
			Root:     root,
			TraceDir: filepath.Join(root, ".bench_build", "traces"),
		}
		if s := runParent(cfg, spec, stdout, stderr); s != 0 {
			status = s
		}
	}
	return status
}

// ---- BENCHMARK.json ----

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names, units and bounds it must report, so the two cannot drift.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if got := s.workloadNames(); !slices.Equal(got, workloadNames) {
		return nil, fmt.Errorf("BENCHMARK.json names workloads %v, the program runs %v", got, workloadNames)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// ---- parent ----

// childResult is what a child process reports on its last line.
type childResult struct {
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Ops         int                `json:"ops"`
	LoopSeconds float64            `json:"loop_seconds"`
	P50Ms       float64            `json:"p50_ms"`
	TailMs      float64            `json:"tail_ms"`
	TailPct     float64            `json:"tail_percentile"`
	OpsPerSec   float64            `json:"ops_per_s"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// report is the full record of one workload run, printed as the line
// before the result; -compare reads these lines.
type report struct {
	Workload       string                  `json:"workload"`
	Trace          bool                    `json:"trace"`
	Correct        bool                    `json:"correct"`
	Attempted      int64                   `json:"attempted"`
	Failed         int64                   `json:"failed"`
	FailedOpsRatio float64                 `json:"failed_ops_ratio"`
	Errors         []string                `json:"errors,omitempty"`
	Metrics        map[string]reportMetric `json:"metrics"`
	Record         record                  `json:"record"`
}

type reportMetric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// record is where and how a run was made.
type record struct {
	Go           string    `json:"go"`
	GOOS         string    `json:"goos"`
	GOARCH       string    `json:"goarch"`
	NProc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	Seed         int64     `json:"seed"`
	Revision     string    `json:"revision"`
	RunSeconds   float64   `json:"run_seconds"`
	LoopSeconds  float64   `json:"loop_seconds"`
	Ops          int       `json:"ops"`
	SetupSeconds []float64 `json:"setup_seconds"`
	TraceFile    string    `json:"trace_file,omitempty"`
}

// result is the last line of output, in the shape the benchmark
// contract fixes.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runParent runs one workload in child processes, prints its report and
// result lines, and returns the exit status. An untraced run sets up in
// setupReps processes (all but the last stop after setup) and reports
// their median set-up time.
func runParent(cfg runConfig, spec *benchSpec, stdout, stderr io.Writer) int {
	if !slices.Contains(workloadNames, cfg.Workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.Workload)
		return 2
	}
	reps := 1
	if !cfg.Trace {
		reps = cfg.sizes().setupReps
	}
	rep := report{Workload: cfg.Workload, Trace: cfg.Trace}
	var setups []float64
	var res childResult
	for i := 0; i < reps; i++ {
		c := cfg
		c.SetupOnly = i < reps-1
		r, setup, err := spawn(c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.Workload, err)
			return 1
		}
		setups = append(setups, setup.Seconds())
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Errors = append(rep.Errors, r.Errors...)
		res = r
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.FailedOpsRatio = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.Record = record{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.Seed, Revision: revision(), RunSeconds: cfg.Duration.Seconds(),
		LoopSeconds: res.LoopSeconds, Ops: res.Ops, SetupSeconds: setups, TraceFile: res.TraceFile,
	}

	defs := spec.EndToEnd
	values := map[string]reportMetric{
		"setup_s":     {Value: median(setups)},
		"op_p50_ms":   {Value: res.P50Ms, N: res.Ops},
		"op_tail_ms":  {Value: res.TailMs, N: res.Ops, Percentile: res.TailPct},
		"ops_per_s":   {Value: res.OpsPerSec, N: res.Ops},
		"peak_rss_mb": {Value: res.PeakRSSMB},
	}
	if cfg.Trace {
		defs = spec.PerLayer
		values = make(map[string]reportMetric, len(res.PerLayer))
		for name, v := range res.PerLayer {
			values[name] = reportMetric{Value: v}
		}
	}
	if err := matchMetrics(defs, values); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	rep.Metrics = values
	out := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]resultMetric, len(values))}
	for name, m := range values {
		out.Metrics[name] = resultMetric{m.Value, m.Unit}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(stderr, "benchmark: %s: failed op: %s\n", cfg.Workload, e)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// matchMetrics checks that values holds exactly the metrics defs names,
// each a finite number, and gives each its unit.
func matchMetrics(defs []metricDef, values map[string]reportMetric) error {
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		v.Unit = d.Unit
		values[d.Name] = v
	}
	if len(missing) > 0 {
		return fmt.Errorf("no finite value for %v", missing)
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured metrics BENCHMARK.json does not name: %v", extra)
	}
	return nil
}

// spawn runs one child process and returns its result and the time from
// starting it to its ready line.
func spawn(cfg runConfig, stderr io.Writer) (childResult, time.Duration, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(exe, childFlag, string(arg))
	cmd.Stderr = stderr
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, 0, err
	}
	var setup time.Duration
	got := false
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case string(line) == readyLine && setup == 0:
			setup = time.Since(start)
		case json.Unmarshal(line, &res) == nil:
			got = true
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		io.Copy(io.Discard, out) // let the child finish writing before Wait
	}
	waitErr := cmd.Wait()
	switch {
	case scanErr != nil:
		return res, 0, scanErr
	case waitErr != nil:
		return res, 0, fmt.Errorf("child process: %w", waitErr)
	case !got || setup == 0:
		return res, 0, errors.New("child process ended without a result")
	}
	return res, setup, nil
}

// revision is the VCS revision the binary was built from, when the
// build recorded one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
