// Package report renders the tables, stacked-bar breakdown charts and
// line charts of the paper as plain text and CSV, so that every figure and
// table of the evaluation can be regenerated on a terminal.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v, floats with prec
// decimals.
func (t *Table) AddRowf(prec int, cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.*f", prec, v)
		case float32:
			row[i] = fmt.Sprintf("%.*f", prec, float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", width[i], c)
		}
		fmt.Fprintln(w)
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		total := 0
		for _, wd := range width {
			total += wd
		}
		fmt.Fprintln(w, strings.Repeat("-", total+2*(cols-1)))
	}
	for _, r := range t.Rows {
		line(r)
	}
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// StackedBars renders a horizontal stacked bar chart: one bar per row, one
// color-letter per component, like the execution-time breakdowns of
// Figures 1 and 2.
type StackedBars struct {
	Title      string
	Components []string    // component names, e.g. par/seq/comm/sync/idle
	Labels     []string    // one per bar
	Values     [][]float64 // Values[bar][component]
	Width      int         // total character width of the longest bar (default 60)
	Unit       string      // printed after totals, e.g. "s"
}

// componentGlyphs are the letters used to draw each component.
var componentGlyphs = []byte{'#', '.', '=', '+', ' ', '%', '@', '*'}

// String renders the chart.
func (c *StackedBars) String() string {
	var sb strings.Builder
	width := c.Width
	if width <= 0 {
		width = 60
	}
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	var maxTotal float64
	totals := make([]float64, len(c.Values))
	for i, vals := range c.Values {
		for _, v := range vals {
			totals[i] += v
		}
		if totals[i] > maxTotal {
			maxTotal = totals[i]
		}
	}
	labelW := 0
	for _, l := range c.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, vals := range c.Values {
		label := ""
		if i < len(c.Labels) {
			label = c.Labels[i]
		}
		fmt.Fprintf(&sb, "%-*s |", labelW, label)
		if maxTotal > 0 {
			for j, v := range vals {
				n := int(math.Round(v / maxTotal * float64(width)))
				g := componentGlyphs[j%len(componentGlyphs)]
				sb.Write(bytesRepeat(g, n))
			}
		}
		fmt.Fprintf(&sb, "| %.3g%s\n", totals[i], c.Unit)
	}
	// Legend.
	fmt.Fprintf(&sb, "%-*s  ", labelW, "")
	for j, name := range c.Components {
		if j > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "[%c]=%s", componentGlyphs[j%len(componentGlyphs)], name)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func bytesRepeat(b byte, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// LineChart renders one or more series as a text plot of y against integer
// x positions (used for the speed-up curves of Figures 5 and 6).
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	XTicks []string
	Series []Series
	Height int // rows (default 16)
}

// Series is one line of a LineChart.
type Series struct {
	Name   string
	Values []float64
}

// seriesGlyphs mark data points of successive series.
var seriesGlyphs = []byte{'o', 'x', '*', '+', '#', '@', '%', '&'}

// String renders the chart.
func (c *LineChart) String() string {
	var sb strings.Builder
	height := c.Height
	if height <= 0 {
		height = 16
	}
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	npts := 0
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.Values) > npts {
			npts = len(s.Values)
		}
		for _, v := range s.Values {
			if v < ymin {
				ymin = v
			}
			if v > ymax {
				ymax = v
			}
		}
	}
	if npts == 0 {
		return sb.String()
	}
	if ymin > 0 && ymin < ymax/4 {
		ymin = 0
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	colw := 6
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = bytesRepeat(' ', npts*colw)
	}
	rowOf := func(v float64) int {
		f := (v - ymin) / (ymax - ymin)
		r := int(math.Round(f * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return height - 1 - r
	}
	for si, s := range c.Series {
		g := seriesGlyphs[si%len(seriesGlyphs)]
		for i, v := range s.Values {
			col := i*colw + colw/2
			grid[rowOf(v)][col] = g
		}
	}
	for r, row := range grid {
		yv := ymax - (ymax-ymin)*float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%8.3g |%s\n", yv, string(row))
	}
	fmt.Fprintf(&sb, "%8s +%s\n", "", strings.Repeat("-", npts*colw))
	fmt.Fprintf(&sb, "%8s  ", "")
	for i := 0; i < npts; i++ {
		tick := ""
		if i < len(c.XTicks) {
			tick = c.XTicks[i]
		}
		fmt.Fprintf(&sb, "%-*s", colw, centerStr(tick, colw))
	}
	sb.WriteByte('\n')
	if c.XLabel != "" {
		fmt.Fprintf(&sb, "%8s  %s\n", "", c.XLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&sb, "  [%c] %s\n", seriesGlyphs[si%len(seriesGlyphs)], s.Name)
	}
	return sb.String()
}

func centerStr(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-len(s)-left)
}
