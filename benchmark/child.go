package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// runChild is a child process: it sets one workload up, says so, runs
// it and prints a childResult. Failed ops are part of the result; only
// a run that cannot produce one exits non-zero.
func runChild(arg string, stdout, stderr io.Writer) int {
	var cfg runConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark child:", err)
		return 1
	}
	res, err := child(cfg, stdout)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark child %s: %v\n", cfg.Workload, err)
		return 1
	}
	return 0
}

func child(cfg runConfig, stdout io.Writer) (childResult, error) {
	e := &env{cfg: cfg, size: cfg.sizes()}
	var res childResult
	w, err := newWorkload(cfg.Workload, e.size)
	if err != nil {
		return res, err
	}
	if err := w.setup(e); err != nil {
		return res, err
	}
	if _, err := fmt.Fprintln(stdout, readyLine); err != nil {
		return res, err
	}
	switch {
	case cfg.SetupOnly:
	case !cfg.Trace:
		durs, wall := w.run(e, cfg.Duration, nil)
		t := summarize(durs, wall)
		res.Ops, res.LoopSeconds, res.OpsPerSec = t.N, t.WallSeconds, t.OpsPerSec
		res.P50Ms, res.TailMs, res.TailPct = ms(t.P50), ms(t.Tail), t.TailPct
	default:
		if res.PerLayer, res.TraceFile, err = tracedRun(e, w); err != nil {
			return res, err
		}
	}
	w.close()
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return res, err
	}
	res.Attempted, res.Failed = e.attempted.Load(), e.failed.Load()
	res.Errors = e.errs
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tracedRun measures the per-layer metrics. A third of the run times
// the workload untraced, the rest traced under a CPU profile; the ratio
// of the two medians is the tracing overhead. After the profile stops,
// the workload's replay runs, then a short traced run of each layer
// group the workload does not cover, then every rung, so that each
// traced run reports every per-layer metric.
func tracedRun(e *env, w workload) (map[string]float64, string, error) {
	third := e.cfg.Duration / 3
	plain, _ := w.run(e, third, nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, "", err
	}
	gc0, alloc0 := runtimeCounters()
	traced, _ := w.run(e, e.cfg.Duration-third, tr)
	gc1, alloc1 := runtimeCounters()
	pprof.StopCPUProfile()
	if r, ok := w.(replayer); ok {
		r.replay(e, tr)
	}

	own := workloadGroup[e.cfg.Workload]
	for _, group := range []string{"suite", "collectives", "serve"} {
		if group == own {
			continue
		}
		if err := ladder(e, ladderWorkload[group], tr); err != nil {
			return nil, "", err
		}
	}
	rungs, err := runRungs(e.size, e.cfg.Seed)
	if err != nil {
		return nil, "", err
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, "", err
	}
	m := tr.medians()
	for b, v := range shares {
		m["cpu."+b] = v
	}
	if req := tr.total("cache.requests"); req > 0 {
		m["cache.hit_ratio"] = tr.total("cache.hits") / req
	}
	m["cache.evictions"] = tr.total("cache.evictions")
	m["cache.collapsed"] = tr.total("cache.collapsed")
	m["gc.cycles"] = gc1 - gc0
	m["alloc.bytes_per_op"] = (alloc1 - alloc0) / float64(len(traced))
	m["trace.overhead_ratio"] = float64(summarize(traced, 0).P50) / float64(summarize(plain, 0).P50)
	for _, r := range rungs {
		m["rung."+r.name+".ns_op"] = r.nsOp
		m["rung."+r.name+".allocs_op"] = r.allocsOp
	}
	file, err := tr.writeTrace(e.cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", e.cfg.Workload, e.cfg.Seed))
	return m, file, err
}

// ladder runs the named workload briefly, traced, in this process.
func ladder(e *env, name string, tr *tracer) error {
	w, err := newWorkload(name, e.size)
	if err != nil {
		return err
	}
	if err := w.setup(e); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	w.run(e, e.size.ladder, tr)
	if r, ok := w.(replayer); ok {
		r.replay(e, tr)
	}
	w.close()
	return nil
}

func runtimeCounters() (gcCycles, allocBytes float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
