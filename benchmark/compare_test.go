package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(from, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = from + step*float64(i)
	}
	return v
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{103, 101, 102}, "lower", verdictSame},
		{"regression", []float64{100, 101, 99}, []float64{115, 116, 114}, "lower", verdictWorse},
		{"regression of a higher-is-better metric", []float64{100, 101, 99}, []float64{85, 86, 84}, "higher", verdictWorse},
		{"gain over ten pairs", seq(100, 0.1, 10), seq(95, 0.1, 10), "lower", verdictBetter},
		{"gain needs ten pairs", []float64{100, 101, 99}, []float64{95, 96, 94}, "lower", verdictSame},
		{"gain within the baseline's spread", seq(100, 1, 10), seq(99, 1, 10), "lower", verdictSame},
		{"gain of a higher-is-better metric", seq(100, 0.1, 10), seq(105, 0.1, 10), "higher", verdictBetter},
		{"spread beyond bound", []float64{80, 100, 120, 130}, []float64{90, 100, 110, 125}, "lower", verdictUnresolved},
		// Every run better rules out a regression, but a gain still
		// needs ten pairs.
		{"spread beyond bound, every run better, three runs", []float64{100, 130, 160}, []float64{50, 60, 70}, "lower", verdictSame},
		{"spread beyond bound, every run better, ten runs", seq(100, 10, 10), seq(40, 5, 10), "lower", verdictBetter},
		{"spread beyond bound, every run better, within A's spread",
			[]float64{100, 101, 102, 103, 104, 200, 300, 400, 500, 600}, seq(90, 1, 10), "lower", verdictSame},
		{"too few runs", []float64{100}, []float64{100}, "lower", verdictUnresolved},
	} {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare reads report lines from whole run outputs and prints one row
// per workload and end-to-end metric.
func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		var b bytes.Buffer
		for _, v := range p50s {
			r := report{Workload: "suite", Metrics: map[string]reportMetric{}}
			for _, d := range spec.EndToEnd {
				r.Metrics[d.Name] = reportMetric{Value: 1}
			}
			r.Metrics["op_p50_ms"] = reportMetric{Value: v}
			line, _ := json.Marshal(r)
			b.Write(line)
			b.WriteString("\n{\"correct\":true}\nnot json\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", 700, 710, 705)
	b := write("b", 1000, 1010, 1005) // 43% worse: beyond any bound BENCHMARK.json may set
	var out, errOut bytes.Buffer
	if code := runCompare(spec, a, b, &out, &errOut); code != 1 {
		t.Fatalf("exit %d for a regression, want 1; stderr %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(spec.EndToEnd) {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	for _, l := range lines[1:] {
		want := verdictSame
		if strings.Contains(l, "op_p50_ms") {
			want = verdictWorse
		}
		if !strings.HasSuffix(l, want) || !strings.HasPrefix(l, "suite") {
			t.Errorf("row %q, want verdict %s", l, want)
		}
	}
	out.Reset()
	if code := runCompare(spec, a, a, &out, &errOut); code != 0 {
		t.Errorf("exit %d comparing a file with itself", code)
	}
}
