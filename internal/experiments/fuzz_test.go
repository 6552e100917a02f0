package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

// FuzzTableFprint builds tables from fuzzed cell data and checks the
// Validate/Fprint contract the crash-isolated runner depends on: a table
// Validate accepts must print, one line per Write, exactly the bytes of
// the reference renderer, String must return the same text, any ragged
// mutation of it must be rejected, and the CSV encoding must round-trip
// every cell byte-for-byte. An ncols with its high bit set also adds
// the title as a note.
func FuzzTableFprint(f *testing.F) {
	f.Add("E1", "device curves", uint8(3), "year,GF,note,2002,4.80,a,2012,149,b")
	f.Add("X5", "monitoring", uint8(2), "nodes,flat,128,unbounded (saturated)")
	f.Add("T", "", uint8(1), "")
	f.Add("", "no id", uint8(4), "a,b,c,d,1,2,3,4")
	f.Add("T", "trailing spaces", uint8(2), "a ,b  ,c   ,d \t ,  ,   ")
	f.Add("T", "empty last column", uint8(2), "x,,y,,z,")
	f.Add("E7", "µs cells", uint8(2), "op,time,ünï,12µs,bb,5000µs,日本語,çødé")
	f.Add("W", "wide cell", uint8(1), strings.Repeat("w", 100)+",v,x,y")
	f.Add("N", "noted", uint8(129), "a,b,c,d,1,2,3,4")
	f.Fuzz(func(t *testing.T, id, title string, ncols uint8, cells string) {
		if len(cells) > 4096 {
			cells = cells[:4096]
		}
		// Newlines and carriage returns can't survive the aligned-text
		// format by design; everything else must.
		sanitize := strings.NewReplacer("\n", " ", "\r", " ")
		tokens := strings.Split(sanitize.Replace(cells), ",")
		width := int(ncols%6) + 1
		tab := &Table{ID: sanitize.Replace(id), Title: sanitize.Replace(title)}
		if ncols&0x80 != 0 {
			tab.Notes = []string{tab.Title}
		}
		for i := 0; i < width && i < len(tokens); i++ {
			tab.Columns = append(tab.Columns, tokens[i])
		}
		for i := width; i+width <= len(tokens); i += width {
			tab.Rows = append(tab.Rows, tokens[i:i+width])
		}

		if err := tab.Validate(); err != nil {
			if tab.ID != "" && len(tab.Columns) == width {
				t.Fatalf("Validate rejected a well-formed table: %v", err)
			}
			return // correctly rejected: unprintable by contract
		}
		want := referenceText(tab)
		var out lineRecorder
		if err := tab.Fprint(&out); err != nil {
			t.Fatalf("Fprint failed on a validated table: %v", err)
		}
		if got := strings.Join(out.writes, ""); got != want {
			t.Fatalf("Fprint wrote\n%q\nwant\n%q", got, want)
		}
		for _, w := range out.writes {
			if strings.IndexByte(w, '\n') != len(w)-1 {
				t.Fatalf("Fprint wrote %q in one Write, not one line", w)
			}
		}
		if got := tab.String(); got != want {
			t.Fatalf("String returned\n%q\nwant\n%q", got, want)
		}

		// A one-column record whose only cell is empty encodes as a blank
		// line, which encoding/csv readers skip by design — exclude that
		// shape from the round-trip check.
		blankRecord := len(tab.Columns) == 1 && tab.Columns[0] == ""
		for _, row := range tab.Rows {
			if len(row) == 1 && row[0] == "" {
				blankRecord = true
			}
		}
		if !blankRecord {
			var enc bytes.Buffer
			if err := tab.CSV(&enc); err != nil {
				t.Fatalf("CSV failed on a validated table: %v", err)
			}
			records, err := csv.NewReader(&enc).ReadAll()
			if err != nil {
				t.Fatalf("CSV output does not re-parse: %v", err)
			}
			if len(records) != 1+len(tab.Rows) {
				t.Fatalf("CSV has %d records, want header + %d rows", len(records), len(tab.Rows))
			}
			for i, rec := range records {
				want := tab.Columns
				if i > 0 {
					want = tab.Rows[i-1]
				}
				if strings.Join(rec, "\x00") != strings.Join(want, "\x00") {
					t.Fatalf("CSV record %d = %q, want %q", i, rec, want)
				}
			}
		}

		// Any ragged mutation must fail Validate — this is the guard
		// that keeps a malformed table out of the shared printer.
		if len(tab.Rows) > 0 {
			wide := *tab
			wide.Rows = append([][]string{append(append([]string{}, tab.Rows[0]...), "extra")}, tab.Rows[1:]...)
			if wide.Validate() == nil {
				t.Fatal("Validate accepted a row wider than the header")
			}
			narrow := *tab
			narrow.Rows = append([][]string{tab.Rows[0][:width-1]}, tab.Rows[1:]...)
			if narrow.Validate() == nil {
				t.Fatal("Validate accepted a row narrower than the header")
			}
		}
	})
}
