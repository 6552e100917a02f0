package sched

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"northstar/internal/sim"
)

// The Standard Workload Format (SWF) of the Parallel Workloads Archive
// (Feitelson et al.) is the lingua franca for production batch traces:
// one job per line, 18 whitespace-separated fields, ';' comment lines.
// ReadSWF lets this scheduler run real archive traces.
//
// Field usage (1-based SWF numbering): 1 job id, 2 submit time, 4 run
// time, 5 allocated processors, 8 requested processors, 9 requested
// (estimated) time. Missing or -1 fields fall back per the SWF spec:
// requested processors default to allocated, requested time to run
// time. Jobs with unusable size or runtime are skipped, as archive
// convention recommends for failed jobs.

// ReadSWF parses an SWF trace. maxNodes > 0 additionally drops jobs
// wider than the target cluster (a standard preprocessing step when
// replaying a trace on a smaller machine).
func ReadSWF(r io.Reader, maxNodes int) ([]*Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var jobs []*Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 9 {
			return nil, fmt.Errorf("sched: swf line %d has %d fields, want >= 9", lineNo, len(fields))
		}
		get := func(i int) (float64, error) {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, fmt.Errorf("sched: swf line %d field %d: %w", lineNo, i, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("sched: swf line %d field %d: %q is not finite", lineNo, i, fields[i-1])
			}
			return v, nil
		}
		id, err := get(1)
		if err != nil {
			return nil, err
		}
		submit, err := get(2)
		if err != nil {
			return nil, err
		}
		run, err := get(4)
		if err != nil {
			return nil, err
		}
		allocProcs, err := get(5)
		if err != nil {
			return nil, err
		}
		reqProcs, err := get(8)
		if err != nil {
			return nil, err
		}
		reqTime, err := get(9)
		if err != nil {
			return nil, err
		}
		procs := reqProcs
		if procs <= 0 {
			procs = allocProcs
		}
		if procs <= 0 || run <= 0 {
			continue // failed/cancelled job per archive convention
		}
		if maxNodes > 0 && int(procs) > maxNodes {
			continue
		}
		est := reqTime
		if est < run {
			est = run // schedulers kill at the estimate; keep jobs runnable
		}
		jobs = append(jobs, &Job{
			ID:       int(id),
			Submit:   sim.Time(submit),
			Nodes:    int(procs),
			Runtime:  sim.Time(run),
			Estimate: sim.Time(est),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sortBySubmit(jobs)
	return jobs, nil
}
