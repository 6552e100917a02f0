package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestFprintRuneAlignment pins the width arithmetic on multi-byte
// cells: "µ" is two bytes but one column, so byte-counted widths would
// shove every cell after a µs value one space left. The expected text
// is written out in full — alignment bugs show up as a shifted column,
// not a failed helper.
func TestFprintRuneAlignment(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "µs cells",
		Columns: []string{"op", "time", "note"},
	}
	tab.AddRow("a", "12µs", "x")
	tab.AddRow("bb", "5000µs", "y")
	want := strings.Join([]string{
		"== T: µs cells ==",
		"op  time    note",
		"----------------",
		"a   12µs    x",
		"bb  5000µs  y",
		"",
		"",
	}, "\n")
	if got := tab.String(); got != want {
		t.Errorf("rune alignment broken:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFprintValidatesFirst pins the ragged-table path: Fprint must
// refuse a table whose rows don't match the header — returning
// Validate's error and writing nothing — instead of panicking on a
// width index.
func TestFprintValidatesFirst(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "ragged",
		Columns: []string{"a", "b"},
		// Built directly: AddRow would panic on the mismatch, but nothing
		// stops a hand-assembled or deserialized table from being ragged.
		Rows: [][]string{{"1", "2", "3"}},
	}
	var out strings.Builder
	err := tab.Fprint(&out)
	if err == nil {
		t.Fatal("Fprint accepted a ragged table")
	}
	if !strings.Contains(err.Error(), "3 cells for 2 columns") {
		t.Errorf("error %q does not describe the ragged row", err)
	}
	if out.Len() != 0 {
		t.Errorf("Fprint wrote %q before rejecting the table", out.String())
	}
	if s := tab.String(); s != "" {
		t.Errorf("String rendered an invalid table as %q", s)
	}
}

// referenceFormatFloat is formatFloat as fmt verbs: the form the
// strconv formatter replaced, kept as the oracle it must match.
func referenceFormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func checkFormatFloat(t *testing.T, v float64) {
	t.Helper()
	if got, want := formatFloat(v), referenceFormatFloat(v); got != want {
		t.Fatalf("formatFloat(%v) [bits %#016x] = %q, want %q", v, math.Float64bits(v), got, want)
	}
}

// TestFormatFloatMatchesFmt checks the formatter against fmt where
// rounding is hardest: within 64 ulps of every branch boundary and of
// decimal ties (2.675 is just below its tie and prints "2.67"; a
// formatter that rounded the shortest form "2.675" would print "2.68"),
// at every half-unit of each fixed-point branch, at special values, and
// on seeded log-uniform values and raw bit patterns.
func TestFormatFloatMatchesFmt(t *testing.T) {
	edges := []float64{
		1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4, 1e5,
		100.5, 101.5, 2.675, 1.005, 9.995, 99.995, 0.9995,
	}
	for _, e := range edges {
		bits := math.Float64bits(e)
		for d := uint64(0); d <= 64; d++ {
			checkFormatFloat(t, math.Float64frombits(bits+d))
			checkFormatFloat(t, math.Float64frombits(bits-d))
			checkFormatFloat(t, -math.Float64frombits(bits+d))
		}
	}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		-1, -0.5, -123.456, -1e-9, -1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	} {
		checkFormatFloat(t, v)
	}
	// Every half-unit of the last printed place: the ties themselves,
	// as near as a float gets to them.
	for k := 100; k < 100000; k++ {
		checkFormatFloat(t, float64(k)+0.5)
	}
	for k := 100; k < 10000; k++ {
		checkFormatFloat(t, (float64(k)+0.5)/100)
	}
	for k := 1; k < 1000; k++ {
		checkFormatFloat(t, (float64(k)+0.5)/1000)
	}
	rng := rand.New(rand.NewPCG(24, 2002))
	for i := 0; i < 100000; i++ {
		checkFormatFloat(t, math.Pow(10, -5+12*rng.Float64()))
		checkFormatFloat(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzFormatFloat compares the formatter with fmt on any bit pattern.
func FuzzFormatFloat(f *testing.F) {
	for _, v := range []float64{0, 2.675, 9.9951, 0.0996, 100.5, 99999.5, 1e5, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFormatFloat(t, math.Float64frombits(bits))
	})
}

// referenceText is the aligned-text renderer that Fprint's one-buffer
// layout replaced, writing to a strings.Builder, which cannot fail. It
// is the oracle for every byte Fprint and String produce; t must be
// valid.
func referenceText(t *Table) string {
	var b strings.Builder
	w := &b
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	total := len(t.Columns)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
	return b.String()
}

// lineRecorder keeps each Write it receives.
type lineRecorder struct{ writes []string }

func (r *lineRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, string(p))
	return len(p), nil
}
