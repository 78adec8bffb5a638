package harness

import (
	"fmt"
	"strconv"
	"strings"

	"opalperf/internal/core"
	"opalperf/internal/molecule"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
	"opalperf/internal/report"
	"opalperf/internal/trace"
)

// BreakdownPanel is one panel of Figures 1 and 2: the measured
// execution-time breakdown against the number of servers for one
// (cut-off, update) configuration.
type BreakdownPanel struct {
	Label      string
	Servers    []int
	Breakdowns []trace.Breakdown
}

// breakdownSpecs builds the specs for servers 1..maxP of one panel.
func breakdownSpecs(pl *platform.Platform, sys *molecule.System,
	cutoff float64, updateEvery, maxP, steps int) []RunSpec {
	specs := make([]RunSpec, maxP)
	for p := 1; p <= maxP; p++ {
		specs[p-1] = paperSpec(pl, sys, cutoff, updateEvery, p, steps)
	}
	return specs
}

// MeasureBreakdownPanel runs the instrumented Opal for servers 1..maxP.
// The runs execute concurrently on the default pool; the panel is
// identical to the sequential loop.
func MeasureBreakdownPanel(pl *platform.Platform, sys *molecule.System,
	cutoff float64, updateEvery, maxP, steps int, label string) (BreakdownPanel, error) {
	panel := BreakdownPanel{Label: label}
	outs, err := RunMany(breakdownSpecs(pl, sys, cutoff, updateEvery, maxP, steps))
	if err != nil {
		return panel, err
	}
	for i, out := range outs {
		panel.Servers = append(panel.Servers, i+1)
		panel.Breakdowns = append(panel.Breakdowns, out.Breakdown)
	}
	return panel, nil
}

// Chart renders the panel as a stacked-bar chart in the paper's component
// order.
func (p BreakdownPanel) Chart() string {
	names, _ := trace.Breakdown{}.Components()
	c := &report.StackedBars{
		Title:      p.Label,
		Components: names,
		Unit:       "s",
	}
	for i, b := range p.Breakdowns {
		_, vals := b.Components()
		c.Labels = append(c.Labels, fmt.Sprintf("p=%d", p.Servers[i]))
		c.Values = append(c.Values, vals)
	}
	return c.String()
}

// Table renders the panel as a numeric table (one row per server count).
func (p BreakdownPanel) Table() *report.Table {
	t := &report.Table{
		Title:   p.Label,
		Headers: []string{"servers", "wall[s]", "par", "seq", "comm", "sync", "idle", "imbalance"},
	}
	for i, b := range p.Breakdowns {
		t.AddRowf(3, p.Servers[i], b.Wall, b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle,
			fmt.Sprintf("%.1f%%", 100*b.Imbalance()))
	}
	return t
}

// FigureBreakdowns measures the four panels of Figure 1 (medium) or
// Figure 2 (large): {no cut-off, cut-off} x {full, partial update}.
func FigureBreakdowns(pl *platform.Platform, sys *molecule.System, maxP, steps int) ([]BreakdownPanel, error) {
	configs := []struct {
		cutoff float64
		update int
		label  string
	}{
		{NoCutoff, 1, "a) no cut-off, full update"},
		{NoCutoff, 10, "b) no cut-off, partial update"},
		{EffectiveCutoff, 1, "c) cut-off 10A, full update"},
		{EffectiveCutoff, 10, "d) cut-off 10A, partial update"},
	}
	// Flatten the configs x servers grid into one spec list so the pool
	// stays saturated across panel boundaries.
	var specs []RunSpec
	for _, cfg := range configs {
		specs = append(specs, breakdownSpecs(pl, sys, cfg.cutoff, cfg.update, maxP, steps)...)
	}
	outs, err := RunMany(specs)
	if err != nil {
		return nil, err
	}
	var panels []BreakdownPanel
	for ci, cfg := range configs {
		panel := BreakdownPanel{
			Label: fmt.Sprintf("%s — %s, %d steps", cfg.label, sys.Name, steps),
		}
		for p := 1; p <= maxP; p++ {
			panel.Servers = append(panel.Servers, p)
			panel.Breakdowns = append(panel.Breakdowns, outs[ci*maxP+p-1].Breakdown)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// PredictionSeries is one platform's predicted execution times and
// speed-ups over the server counts, one line of Figures 5 and 6.
type PredictionSeries struct {
	Platform string
	Times    []float64
	Speedups []float64
}

// PredictFigure computes one half of Figure 5 or 6: for every platform in
// the catalogue, the predicted execution time and relative speed-up for
// servers 1..maxP, via the calibrated application parameters and the
// platforms' key technical data (Section 4.1).
func PredictFigure(pls []*platform.Platform, sys *molecule.System,
	cutoff float64, updateEvery, steps, maxP int) []PredictionSeries {
	out, _ := parallel.Map(pls, func(_ int, pl *platform.Platform) (PredictionSeries, error) {
		mach := core.MachineFor(pl, sys.Gamma())
		ps := PredictionSeries{Platform: pl.Name}
		var t1 float64
		for p := 1; p <= maxP; p++ {
			app := core.AppFor(sys, cutoff, updateEvery, p, steps)
			t := mach.Total(app)
			if p == 1 {
				t1 = t
			}
			ps.Times = append(ps.Times, t)
			ps.Speedups = append(ps.Speedups, t1/t)
		}
		return ps, nil
	})
	return out
}

// PredictionCharts renders the execution-time and speed-up line charts
// for one configuration.
func PredictionCharts(series []PredictionSeries, title string) (timesChart, speedupChart string) {
	maxP := 0
	for _, s := range series {
		if len(s.Times) > maxP {
			maxP = len(s.Times)
		}
	}
	ticks := make([]string, maxP)
	for i := range ticks {
		ticks[i] = strconv.Itoa(i + 1)
	}
	tc := &report.LineChart{Title: title + " — predicted execution time [s]", XTicks: ticks, XLabel: "servers"}
	sc := &report.LineChart{Title: title + " — predicted speed-up", XTicks: ticks, XLabel: "servers"}
	for _, s := range series {
		tc.Series = append(tc.Series, report.Series{Name: s.Platform, Values: s.Times})
		sc.Series = append(sc.Series, report.Series{Name: s.Platform, Values: s.Speedups})
	}
	return tc.String(), sc.String()
}

// PredictionTable renders the series numerically.
func PredictionTable(series []PredictionSeries, title string) *report.Table {
	t := &report.Table{Title: title}
	maxP := 0
	for _, s := range series {
		if len(s.Times) > maxP {
			maxP = len(s.Times)
		}
	}
	hdr := []string{"platform"}
	for p := 1; p <= maxP; p++ {
		hdr = append(hdr, fmt.Sprintf("t(p=%d)", p))
	}
	hdr = append(hdr, fmt.Sprintf("speedup(p=%d)", maxP))
	t.Headers = hdr
	for _, s := range series {
		row := []string{s.Platform}
		for _, v := range s.Times {
			row = append(row, strconv.FormatFloat(v, 'f', 2, 64))
		}
		row = append(row, strconv.FormatFloat(s.Speedups[len(s.Speedups)-1], 'f', 2, 64))
		t.AddRow(row...)
	}
	return t
}

// CalibrationTable renders a core.Report as the Figure 4 comparison:
// measured vs predicted wall time per case with the relative difference.
func CalibrationTable(rep core.Report) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("model vs measurement (%s): MAPE %.1f%%, R2 %.4f",
			rep.Machine.Name, 100*rep.MAPE, rep.R2),
		Headers: []string{"n", "p", "u", "cutoff", "measured[s]", "model[s]", "diff"},
	}
	for _, c := range rep.Cases {
		meas, pred := c.Measured.Total(), c.Predicted.Total()
		diff := "n/a"
		if meas != 0 {
			diff = fmt.Sprintf("%+.1f%%", 100*(pred-meas)/meas)
		}
		cut := "no"
		if c.App.Cutoff {
			cut = "10A"
		}
		t.AddRowf(2, c.App.N, c.App.P, c.App.U, cut, meas, pred, diff)
	}
	return t
}

// FittedParamsTable renders the fitted machine parameters.
func FittedParamsTable(m core.Machine) *report.Table {
	t := &report.Table{
		Title:   "fitted model parameters — " + m.Name,
		Headers: []string{"param", "value", "meaning"},
	}
	add := func(name string, v float64, meaning string) {
		t.AddRow(name, fmt.Sprintf("%.4g", v), meaning)
	}
	add("a1", m.A1/1e6, "communication rate [MByte/s]")
	add("b1", m.B1*1e3, "message overhead [ms]")
	add("a2", m.A2*1e9, "pair distance check [ns]")
	add("a3", m.A3*1e9, "pair energy evaluation [ns]")
	add("a4", m.A4*1e6, "client work per mass center [us]")
	add("b5", m.B5*1e3, "barrier synchronization [ms]")
	return t
}

// ParameterSpaceTable renders Figure 3: the calibration parameter space.
func ParameterSpaceTable(s Suite) *report.Table {
	t := &report.Table{
		Title:   "Figure 3 — parameter space of the Opal calibration",
		Headers: []string{"factor", "levels"},
	}
	for _, f := range s.Factors([]string{"small", "medium", "large"}) {
		t.AddRow(f.Name, strings.Join(f.Levels, ", "))
	}
	t.AddRow("design", fmt.Sprintf("full factorial: %d cases", len(s.FullCases())))
	if frac, err := s.FractionCases(); err == nil {
		t.AddRow("reduced", fmt.Sprintf("7x2^(3-1) fraction: %d cases", len(frac)))
	}
	return t
}
