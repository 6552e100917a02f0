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
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
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

// formatFloat renders a float cell by magnitude: three significant
// digits outside [1e-3, 1e5), whole numbers from 100, two decimals
// from 1 and three below 1 — byte for byte what fmt's %.3g, %.0f, %.2f
// and %.3f print, without fmt. strconv formats 'f' at a fixed
// precision through its slow multiprecision path, so appendFixed reads
// the same digits from 'e'.
func formatFloat(v float64) string {
	var buf [24]byte
	var b []byte
	switch {
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3:
		b = strconv.AppendFloat(buf[:0], v, 'g', 3, 64)
	case v >= 100:
		// %.0f rounds the exact binary value half to even, and a float
		// is a tie only when its fraction is exactly one half.
		b = strconv.AppendInt(buf[:0], int64(math.RoundToEven(v)), 10)
	case v >= 1:
		b = appendFixed(buf[:0], v, 2)
	default:
		b = appendFixed(buf[:0], v, 3) // NaN lands here and prints "NaN"
	}
	return string(b)
}

// appendFixed appends v, which lies in [1e-3, 100) (or is NaN), with
// prec digits after the point, as %.<prec>f does. It asks strconv for
// the same digits in 'e' form, whose fixed digit count takes the exact
// Ryū path, rounding the binary value half to even as 'f' does, and
// then places the decimal point itself.
func appendFixed(b []byte, v float64, prec int) []byte {
	if math.IsNaN(v) {
		return append(b, "NaN"...)
	}
	k := -3 // the decimal exponent of v's leading digit
	switch {
	case v >= 10:
		k = 1
	case v >= 1:
		k = 0
	case v >= 0.1:
		k = -1
	case v >= 0.01:
		k = -2
	}
	// e is d[.ddd]e±XX with k+prec digits after its point.
	var buf [24]byte
	e := strconv.AppendFloat(buf[:0], v, 'e', k+prec, 64)
	var digits [8]byte
	n, i := 0, 0
	for ; e[i] != 'e'; i++ {
		if e[i] != '.' {
			digits[n] = e[i]
			n++
		}
	}
	exp := int(e[i+2]-'0')*10 + int(e[i+3]-'0')
	if e[i+1] == '-' {
		exp = -exp
	}
	if exp >= 0 {
		b = append(b, digits[:exp+1]...)
		b = append(b, '.')
		b = append(b, digits[exp+1:n]...)
	} else {
		b = append(b, "0."...)
		b = append(b, "00"[:-exp-1]...)
		b = append(b, digits[:n]...)
	}
	if exp > k {
		// Rounding carried into a new leading digit (9.996 → 1.00e+01):
		// the digits end one place short of prec.
		b = append(b, '0')
	}
	return b
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
// not bytes, so multi-byte cells like "12 µs" still align. Each line is
// one Write, so a writer that fails mid-table fails the table.
func (t *Table) Fprint(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	text := t.layout()
	for len(text) > 0 {
		n := bytes.IndexByte(text, '\n') + 1 // every line ends in '\n'
		if _, err := w.Write(text[:n]); err != nil {
			return err
		}
		text = text[n:]
	}
	return nil
}

// String renders the table as text. An invalid (ragged) table renders
// as the empty string — Fprint refuses it before writing anything.
func (t *Table) String() string {
	if t.Validate() != nil {
		return ""
	}
	return string(t.layout())
}

// Runs that padding and the rule under the header are sliced from.
const (
	spaces = "                                                                "
	dashes = "----------------------------------------------------------------"
)

// layout renders a validated table into one buffer sized up front: the
// title line, the header, a rule as wide as the columns, one line per
// row, the notes and a blank line. Cells are left-aligned in columns
// two spaces apart, and each line's trailing spaces are trimmed,
// including those that belong to its last cells.
func (t *Table) layout() []byte {
	widths := make([]int, len(t.Columns))
	extra := 0 // bytes beyond one per rune, over every cell
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
		extra += len(c) - widths[i]
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			n := utf8.RuneCountInString(cell)
			widths[i] = max(widths[i], n)
			extra += len(cell) - n
		}
	}
	rule := 2 * (len(widths) - 1)
	for _, wd := range widths {
		rule += wd
	}
	size := len("== ") + len(t.ID) + len(": ") + len(t.Title) + len(" ==\n") +
		(len(t.Rows)+2)*(rule+1) + extra + 1
	for _, n := range t.Notes {
		size += len("note: \n") + len(n)
	}

	b := make([]byte, 0, size)
	b = append(b, "== "...)
	b = append(b, t.ID...)
	b = append(b, ": "...)
	b = append(b, t.Title...)
	b = append(b, " ==\n"...)
	line := func(cells []string) {
		start := len(b)
		for i, cell := range cells {
			if i > 0 {
				b = append(b, "  "...)
			}
			b = append(b, cell...)
			b = appendRun(b, spaces, widths[i]-utf8.RuneCountInString(cell))
		}
		for len(b) > start && b[len(b)-1] == ' ' {
			b = b[:len(b)-1]
		}
		b = append(b, '\n')
	}
	line(t.Columns)
	b = appendRun(b, dashes, rule)
	b = append(b, '\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b = append(b, "note: "...)
		b = append(b, n...)
		b = append(b, '\n')
	}
	return append(b, '\n')
}

// appendRun appends n bytes of run's repeated character.
func appendRun(b []byte, run string, n int) []byte {
	for n > len(run) {
		b = append(b, run...)
		n -= len(run)
	}
	return append(b, run[:n]...)
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
