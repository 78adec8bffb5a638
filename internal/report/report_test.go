package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "2")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	// Separator row between header and data.
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator = %q", lines[2])
	}
	// Value column aligned across rows.
	i1 := strings.Index(lines[3], "1")
	i2 := strings.Index(lines[4], "2")
	if i1 != i2 {
		t.Errorf("columns misaligned: %d vs %d\n%s", i1, i2, s)
	}
}

func TestAddRowfFormatsFloats(t *testing.T) {
	tb := &Table{}
	tb.AddRowf(2, "x", 3.14159, 7)
	if got := tb.Rows[0]; got[1] != "3.14" || got[2] != "7" || got[0] != "x" {
		t.Errorf("row = %v", got)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := &Table{Headers: []string{"a"}}
	tb.AddRow("1", "2", "3")
	s := tb.String()
	if !strings.Contains(s, "3") {
		t.Errorf("ragged row dropped: %q", s)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{Headers: []string{"name", "note"}}
	tb.AddRow("a,b", `say "hi"`)
	csv := tb.CSV()
	want := "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
}

func TestStackedBarsRender(t *testing.T) {
	c := &StackedBars{
		Title:      "breakdown",
		Components: []string{"par", "seq"},
		Labels:     []string{"p=1", "p=2"},
		Values:     [][]float64{{10, 2}, {5, 2}},
		Width:      20,
		Unit:       "s",
	}
	s := c.String()
	if !strings.Contains(s, "p=1") || !strings.Contains(s, "p=2") {
		t.Errorf("labels missing:\n%s", s)
	}
	if !strings.Contains(s, "[#]=par") || !strings.Contains(s, "[.]=seq") {
		t.Errorf("legend missing:\n%s", s)
	}
	// The p=1 bar should be longer than the p=2 bar.
	lines := strings.Split(s, "\n")
	bar1 := strings.Count(lines[1], "#") + strings.Count(lines[1], ".")
	bar2 := strings.Count(lines[2], "#") + strings.Count(lines[2], ".")
	if bar1 <= bar2 {
		t.Errorf("bar lengths: p=1 %d should exceed p=2 %d\n%s", bar1, bar2, s)
	}
	if !strings.Contains(lines[1], "12s") {
		t.Errorf("total missing: %q", lines[1])
	}
}

func TestStackedBarsZeroValues(t *testing.T) {
	c := &StackedBars{
		Components: []string{"a"},
		Labels:     []string{"x"},
		Values:     [][]float64{{0}},
	}
	s := c.String() // must not divide by zero
	if !strings.Contains(s, "x") {
		t.Errorf("render = %q", s)
	}
}

func TestLineChartRender(t *testing.T) {
	c := &LineChart{
		Title:  "speedup",
		XTicks: []string{"1", "2", "3", "4"},
		Series: []Series{
			{Name: "ideal", Values: []float64{1, 2, 3, 4}},
			{Name: "real", Values: []float64{1, 1.8, 2.4, 2.9}},
		},
		Height: 8,
		XLabel: "servers",
	}
	s := c.String()
	if !strings.Contains(s, "speedup") || !strings.Contains(s, "servers") {
		t.Errorf("chart missing labels:\n%s", s)
	}
	if !strings.Contains(s, "[o] ideal") || !strings.Contains(s, "[x] real") {
		t.Errorf("legend missing:\n%s", s)
	}
	if !strings.Contains(s, "o") || !strings.Contains(s, "x") {
		t.Errorf("points missing:\n%s", s)
	}
}

func TestLineChartEmpty(t *testing.T) {
	c := &LineChart{Title: "empty"}
	if got := c.String(); !strings.Contains(got, "empty") {
		t.Errorf("empty chart = %q", got)
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	c := &LineChart{Series: []Series{{Name: "c", Values: []float64{5, 5, 5}}}}
	s := c.String() // must not divide by zero on ymax == ymin
	if !strings.Contains(s, "o") {
		t.Errorf("constant chart = %q", s)
	}
}

func TestCenterStr(t *testing.T) {
	if centerStr("ab", 6) != "  ab  " {
		t.Errorf("center = %q", centerStr("ab", 6))
	}
	if centerStr("abcdef", 3) != "abc" {
		t.Errorf("truncate = %q", centerStr("abcdef", 3))
	}
}
