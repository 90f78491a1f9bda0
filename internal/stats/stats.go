// Package stats provides the small numeric and presentation helpers shared
// by the experiment drivers: means, percentage formatting, and fixed-width
// text tables matching the rows the paper's tables and figures report.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs; every element must be positive
// (non-positive elements are skipped, matching how speedup geomeans treat
// missing benchmarks).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Min returns the minimum of xs (0 for empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Table accumulates rows and renders them with aligned columns. The zero
// value is not usable; create with NewTable.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v except float64, which renders with three decimals.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// TableOf rebuilds a table from the cells Cells returned. Every row must
// have one cell per header, as every row AddRow appends does.
func TableOf(headers []string, rows [][]string) (*Table, error) {
	for i, row := range rows {
		if len(row) != len(headers) {
			return nil, fmt.Errorf("stats: table row %d has %d cells for %d headers", i, len(row), len(headers))
		}
	}
	return &Table{headers: headers, rows: rows}, nil
}

// Cells returns the table's headers and rows. They are the table's own
// slices, so the caller must not modify them.
func (t *Table) Cells() (headers []string, rows [][]string) { return t.headers, t.rows }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table: header, separator, then rows, each column
// padded to its widest cell. The first column is left-aligned, the rest
// right-aligned (numeric convention).
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
