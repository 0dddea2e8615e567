package metrics

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders an aligned plain-text table. The
// experiment harness (internal/bench, cmd/arbd-bench) prints each
// experiment's result as one.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v (floats trimmed).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case float32:
			row[i] = trimFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// trimFloat renders a float compactly: integers without decimals, otherwise
// up to 4 significant decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string { return append([]string(nil), t.headers...) }

// String renders the table with a title line, a header row, a separator, and
// aligned columns. Rows wider than the header row render their extra cells
// unpadded rather than panicking.
func (t *Table) String() string {
	// Widths cover the widest row, not just the headers: AddRow accepts more
	// cells than there are headers, and writeRow indexes widths for every
	// non-final cell.
	n := len(t.headers)
	for _, row := range t.rows {
		if len(row) > n {
			n = len(row)
		}
	}
	widths := make([]int, n)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
