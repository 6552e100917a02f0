// Package experiments implements the full evaluation suite from
// DESIGN.md §3: experiments E1–E12 with E5b and E6b, and extensions
// X1–X7. The source paper is a keynote abstract with no published
// tables, so each experiment here operationalizes one of the abstract's
// claims (DESIGN.md §1 maps claims to experiments); EXPERIMENTS.md
// records the expected shape versus what these functions measure.
//
// Every experiment returns a Table that renders as aligned text or CSV,
// and is callable from cmd/experiments, from the scenario service and
// from the benchmark module. Experiments taking a `quick` flag shrink
// their sweeps for CI; the full settings reproduce the committed
// EXPERIMENTS.md numbers.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry the expected shape and any caveats.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: %s row has %d cells for %d columns", t.ID, len(row), len(t.Columns)))
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
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

// Validate checks the table is printable: a non-empty ID, at least one
// column, and every row exactly as wide as the header. The runner
// validates each successful spec's table before printing, so a spec that
// hand-builds a ragged table fails alone instead of crashing the shared
// printer goroutine (Fprint indexes widths by column).
func (t *Table) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("experiments: table has no ID")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("experiments: table %s has no columns", t.ID)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("experiments: table %s row %d has %d cells for %d columns",
				t.ID, i, len(row), len(t.Columns))
		}
	}
	return nil
}

// Fprint writes the table as aligned text. It validates first — a
// ragged table errors instead of panicking on a width index — and
// returns the first write error: a broken pipe must surface as a
// failure, not a silently truncated table. Column widths count runes,
// not bytes, so multi-byte cells like "12 µs" still align.
func (t *Table) Fprint(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	ew := &errWriter{w: w}
	w = ew
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
	return ew.err
}

// errWriter latches the first write error and swallows all writes after
// it, so Fprint can use plain fmt calls and still report broken pipes.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// String renders the table as text. An invalid (ragged) table renders
// as the empty string — Fprint refuses it before writing anything.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b) // a strings.Builder write cannot fail
	return b.String()
}

// CSV writes the table as CSV (columns header then rows).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Cell returns the cell at (row, column-name), for tests.
func (t *Table) Cell(row int, col string) (string, error) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", fmt.Errorf("experiments: table %s has no column %q", t.ID, col)
	}
	if row < 0 || row >= len(t.Rows) {
		return "", fmt.Errorf("experiments: table %s has no row %d", t.ID, row)
	}
	return t.Rows[row][ci], nil
}
