package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
)

// Column is one column of a Table in up to two views. Head and Verb are
// the text view's header and fmt verb for the cells; CSV is the
// machine-readable header. A column with an empty Head is CSV-only, one
// with an empty CSV is text-only — a value shown as a percentage in one
// view and a fraction in the other is simply two columns.
type Column struct {
	Head, Verb, CSV string
}

// Table is what every experiment renders to: a title, columns, one cell
// per column per row, and free-form trailing lines for the text view.
// A table with no columns in a view is omitted from that view.
type Table struct {
	Title string
	Cols  []Column
	Rows  [][]any
	Notes []string
}

// view returns the indices of the columns that name returns a header for.
func (t Table) view(name func(Column) string) []int {
	var idx []int
	for i, c := range t.Cols {
		if name(c) != "" {
			idx = append(idx, i)
		}
	}
	return idx
}

// headVerb turns a cell's fmt verb into its header's: the same flags and
// width applied to a string ("%-10.3f" → "%-10s"), so the two line up.
func headVerb(verb string) string {
	i := 1
	for i < len(verb) && (verb[i] == '-' || (verb[i] >= '0' && verb[i] <= '9')) {
		i++
	}
	return verb[:i] + "s"
}

// WriteText writes the aligned text view: title, header, one line per
// row with columns separated by a single space, then the notes.
func (t Table) WriteText(w io.Writer) error {
	idx := t.view(func(c Column) string { return c.Head })
	if len(idx) == 0 {
		return nil
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, t.Title)
	line := func(cell func(i int) string) {
		for j, i := range idx {
			if j > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(cell(i))
		}
		buf.WriteByte('\n')
	}
	line(func(i int) string { return fmt.Sprintf(headVerb(t.Cols[i].Verb), t.Cols[i].Head) })
	for _, row := range t.Rows {
		line(func(i int) string { return fmt.Sprintf(t.Cols[i].Verb, row[i]) })
	}
	for _, n := range t.Notes {
		fmt.Fprintln(&buf, n)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteCSV writes the machine-readable view: a header record and one
// record per row. Floats are %.6g; every other cell (ints, bools,
// Stringers, pre-formatted strings) is written as fmt.Sprint renders it.
func (t Table) WriteCSV(w io.Writer) error {
	idx := t.view(func(c Column) string { return c.CSV })
	if len(idx) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	rec := make([]string, len(idx))
	for j, i := range idx {
		rec[j] = t.Cols[i].CSV
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	for _, row := range t.Rows {
		for j, i := range idx {
			if v, ok := row[i].(float64); ok {
				rec[j] = fmt.Sprintf("%.6g", v)
			} else {
				rec[j] = fmt.Sprint(row[i])
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
