// Package stats provides the small numeric and formatting utilities the
// benchmark harness shares: aligned text tables (the paper's tables),
// x/y series (the paper's figures), and summary statistics.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows.
//
//simlint:allow deadexport table probe the microbench tests drive
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell (row, col).
//
//simlint:allow deadexport table probe the microbench tests drive
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points (one curve of a figure).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the given x, or ok=false.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Render formats several series side by side, keyed by x.
func Render(title, xLabel, yLabel string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	headers := []string{xLabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	tb := NewTable(fmt.Sprintf("(y: %s)", yLabel), headers...)
	for _, x := range xs {
		cells := []interface{}{trimFloat(x)}
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				cells = append(cells, y)
			} else {
				cells = append(cells, "-")
			}
		}
		tb.AddRow(cells...)
	}
	b.WriteString(tb.Render())
	return b.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Slope fits a least-squares line to the series and returns its slope.
//
//simlint:allow deadexport reference least-squares fit the microbench and integration tests compare simulated latencies against
func Slope(points []Point) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
