package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison, following the choosing-metrics method: a
// regression is a median worse by more than the metric's bound; a gain
// needs at least ten pairs of runs, nine in ten of them won, and a
// median difference beyond the baseline's own quartile spread; and a
// spread wider than the bound leaves the metric unresolved unless every
// run of B beats every run of A. That exception only rules out a
// regression: such a metric is better by the gain rule or else same.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

const minGainPairs = 10

// side summarizes one file's runs of one metric on one workload.
type side struct {
	n           int
	med, q1, q3 float64
}

func summarizeSide(v []float64) side {
	s := side{n: len(v), med: median(v)}
	if len(v) >= 2 {
		s.q1, s.q3 = quartiles(v)
	} else if len(v) == 1 {
		s.q1, s.q3 = v[0], v[0]
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 { return (s.q3 - s.q1) / math.Abs(s.med) }

// verdict compares runs b against baseline runs a, in file order for
// pairing, for a metric where better is "lower" or "higher".
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) < 2 || len(b) < 2 {
		return verdictUnresolved
	}
	sa, sb := summarizeSide(a), summarizeSide(b)
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	gain := (sa.med - sb.med) / math.Abs(sa.med)
	if better == "higher" {
		gain = -gain
	}
	if math.Max(sa.spread(), sb.spread()) > bound {
		for _, x := range b {
			for _, y := range a {
				if !beats(x, y) {
					return verdictUnresolved
				}
			}
		}
	} else if gain < -bound {
		return verdictWorse
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= minGainPairs && float64(wins) >= 0.9*float64(pairs) &&
		gain > 0 && math.Abs(sb.med-sa.med) > sa.q3-sa.q1 {
		return verdictBetter
	}
	return verdictSame
}

// readReports returns every untraced report line in a file, grouped as
// workload -> metric -> values in file order. Other lines are skipped,
// so a file can collect a run's whole standard output.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, both files'
// medians and quartiles, the relative change, the bound and a verdict.
// It exits 1 when any metric is worse.
func runCompare(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReports(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := readReports(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tbound\tverdict")
	status := 0
	for _, w := range spec.workloadNames() {
		for _, d := range spec.EndToEnd {
			va, vb := a[w][d.Name], b[w][d.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			sa, sb := summarizeSide(va), summarizeSide(vb)
			v := verdict(va, vb, d.Better, d.Bound)
			if v == verdictWorse {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				w, d.Name, sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n,
				100*(sb.med-sa.med)/math.Abs(sa.med), 100*d.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return status
}
