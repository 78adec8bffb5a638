package paper

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"opalperf/internal/core"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
	"opalperf/internal/report"
	"opalperf/internal/trace"
)

// paperSpec is the paper's measured run — an energy minimization timed
// with barrier-separated accounting — as every figure, table and
// calibration case runs it.
func paperSpec(pl *platform.Platform, sys *molecule.System, cutoff float64, updateEvery, servers, steps int) harness.RunSpec {
	return harness.RunSpec{
		Platform: pl, Sys: sys, Servers: servers, Steps: steps,
		Opts: md.Options{Cutoff: cutoff, UpdateEvery: updateEvery, Accounting: true, Minimize: true},
	}
}

// BreakdownPanel is one panel of Figures 1 and 2: the measured
// execution-time breakdown against the number of servers for one
// (cut-off, update) configuration.
type BreakdownPanel struct {
	Label      string
	Servers    []int
	Breakdowns []trace.Breakdown
}

// MeasureBreakdownPanel runs the instrumented Opal for servers 1..maxP.
// The runs execute concurrently on the default pool; the panel is
// identical to the sequential loop.
func MeasureBreakdownPanel(pl *platform.Platform, sys *molecule.System,
	cutoff float64, updateEvery, maxP, steps int, label string) (BreakdownPanel, error) {
	panel := BreakdownPanel{Label: label}
	specs := make([]harness.RunSpec, maxP)
	for p := 1; p <= maxP; p++ {
		specs[p-1] = paperSpec(pl, sys, cutoff, updateEvery, p, steps)
	}
	outs, err := harness.RunMany(specs)
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
		{harness.NoCutoff, 1, "a) no cut-off, full update"},
		{harness.NoCutoff, 10, "b) no cut-off, partial update"},
		{harness.EffectiveCutoff, 1, "c) cut-off 10A, full update"},
		{harness.EffectiveCutoff, 10, "d) cut-off 10A, partial update"},
	}
	// Flatten the configs x servers grid into one spec list so the pool
	// stays saturated across panel boundaries.
	var specs []harness.RunSpec
	for _, cfg := range configs {
		for p := 1; p <= maxP; p++ {
			specs = append(specs, paperSpec(pl, sys, cfg.cutoff, cfg.update, p, steps))
		}
	}
	outs, err := harness.RunMany(specs)
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
// servers 1..maxP.  Each platform's machine is core.MachineFor, the
// one-rate extraction from its key technical data (Section 4.1); the
// Figure 4 fit feeds no prediction.
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

// breakdownFigure is Figure 1 (medium) or Figure 2 (large): the four
// panels over servers 1..MaxP on the virtual J90, as a chart and table
// per panel and one CSV.  Its metric is the wall time of panel c (cut-off,
// full update) at four servers.
func breakdownFigure(fig, size string) func(Scale) (Output, error) {
	return func(s Scale) (Output, error) {
		panels, err := FigureBreakdowns(platform.J90(), s.Sizes[size], s.MaxP, s.Steps)
		if err != nil {
			return Output{}, err
		}
		var sb strings.Builder
		csv := &report.Table{Headers: []string{"panel", "servers", "wall_s", "par", "seq", "comm", "sync", "idle"}}
		for _, p := range panels {
			sb.WriteString(p.Chart())
			sb.WriteString("\n")
			p.Table().Render(&sb)
			sb.WriteString("\n")
			for i, b := range p.Breakdowns {
				csv.AddRowf(4, p.Label, p.Servers[i], b.Wall, b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle)
			}
		}
		return Output{
			Files: map[string]string{fig + "_breakdowns.txt": sb.String(), fig + "_breakdowns.csv": csv.CSV()},
			Metrics: []Metric{
				{Unit: "virtual-s", Value: panels[2].Breakdowns[min(4, s.MaxP)-1].Wall},
			},
		}, nil
	}
}

// suiteAt is the calibration suite at s.
func suiteAt(s Scale) Suite {
	suite := NewSuite(s.Sizes)
	suite.Steps = s.Steps
	suite.MaxServers = s.MaxP
	return suite
}

// designFigure is Figure 3: the calibration's parameter space and the
// sizes of its full and reduced designs.
func designFigure(s Scale) (Output, error) {
	suite := suiteAt(s)
	frac, err := suite.FractionCases()
	if err != nil {
		return Output{}, err
	}
	return Output{
		Files: map[string]string{"fig3_parameter_space.txt": ParameterSpaceTable(suite).String()},
		Metrics: []Metric{
			{Unit: "full-cases", Value: float64(len(suite.FullCases()))},
			{Unit: "fraction-cases", Value: float64(len(frac))},
		},
	}, nil
}

// calibrationFigure is Figure 4: the reduced design run and the model
// fitted to it.
func calibrationFigure(s Scale) (Output, error) {
	rep, err := suiteAt(s).Calibrate(nil)
	if err != nil {
		return Output{}, err
	}
	var sb strings.Builder
	FittedParamsTable(rep.Machine).Render(&sb)
	sb.WriteString("\n")
	CalibrationTable(rep).Render(&sb)
	return Output{
		Files:   map[string]string{"fig4_calibration.txt": sb.String()},
		Metrics: []Metric{{Unit: "MAPE-%", Value: 100 * rep.MAPE}, {Unit: "R2", Value: rep.R2}},
	}, nil
}

// predictionFigure is Figure 5 (the paper's medium complex) or Figure 6
// (large), both at full size, since the model is analytic: every
// platform's predicted time and speed-up over servers 1..MaxP without and
// with the cut-off.  Its metrics are the J90's and the T3E's cut-off
// speed-ups at MaxP.
func predictionFigure(fig string, full func() *molecule.System) func(Scale) (Output, error) {
	return func(s Scale) (Output, error) {
		sys := full()
		var sb strings.Builder
		csv := &report.Table{Headers: []string{"config", "platform", "servers", "time_s", "speedup"}}
		var ms []Metric
		for _, cfg := range []struct {
			cutoff float64
			label  string
		}{
			{harness.NoCutoff, "no cut-off"},
			{harness.EffectiveCutoff, "cut-off 10A"},
		} {
			series := PredictFigure(platform.All(), sys, cfg.cutoff, 1, s.Steps, s.MaxP)
			title := fmt.Sprintf("%s, %s", sys.Name, cfg.label)
			tc, sc := PredictionCharts(series, title)
			sb.WriteString(tc)
			sb.WriteString("\n")
			sb.WriteString(sc)
			sb.WriteString("\n")
			PredictionTable(series, title).Render(&sb)
			sb.WriteString("\n")
			for _, ps := range series {
				for i := range ps.Times {
					csv.AddRowf(4, cfg.label, ps.Platform, i+1, ps.Times[i], ps.Speedups[i])
				}
			}
			if cfg.cutoff == harness.EffectiveCutoff {
				ms = speedupMetrics(series, s.MaxP)
			}
		}
		return Output{
			Files:   map[string]string{fig + "_prediction.txt": sb.String(), fig + "_prediction.csv": csv.CSV()},
			Metrics: ms,
		}, nil
	}
}

// speedupMetrics are the J90's and the T3E's speed-ups at maxP.
func speedupMetrics(series []PredictionSeries, maxP int) []Metric {
	at := map[string]float64{}
	for _, ps := range series {
		at[ps.Platform] = ps.Speedups[maxP-1]
	}
	return []Metric{
		{Unit: fmt.Sprintf("j90-speedup@%d", maxP), Value: at[platform.J90().Name]},
		{Unit: fmt.Sprintf("t3e-speedup@%d", maxP), Value: at[platform.T3E900().Name]},
	}
}

// costExtra ranks the platforms by cost-effectiveness (1998 prices) on
// the predicted cut-off time of the paper's medium complex at MaxP
// servers; its metric is the best platform's dollar-seconds.
func costExtra(s Scale) (Output, error) {
	times := map[string]float64{}
	for _, ps := range PredictFigure(platform.All(), molecule.Antennapedia(), harness.EffectiveCutoff, 1, s.Steps, s.MaxP) {
		times[ps.Platform] = ps.Times[len(ps.Times)-1]
	}
	ranked := platform.RankByCost(platform.All(), s.MaxP, times)
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost-effectiveness, medium complex, cut-off, %d servers:\n", s.MaxP)
	for i, c := range ranked {
		fmt.Fprintf(&sb, "  %d. %s\n", i+1, c)
	}
	return Output{
		Files:   map[string]string{"extra_cost.txt": sb.String()},
		Metrics: []Metric{{Unit: "best-$s", Value: ranked[0].CostSeconds}},
	}, nil
}

// whatIfExtra is Section 4.1's suspicion made a number: the J90's cut-off
// speed-up on the paper's medium complex at MaxP servers under its
// PVM/Sciddle key data and under T3E-class zero-copy MPI figures, and the
// a1 the model needs for a four-fold speed-up there.  Its metric is the
// MPI speed-up; the PVM one is Figure 5's.
func whatIfExtra(s Scale) (Output, error) {
	sys, maxP := molecule.Antennapedia(), s.MaxP
	j90 := core.MachineFor(platform.J90(), sys.Gamma())
	app := core.AppFor(sys, harness.EffectiveCutoff, 1, 1, s.Steps)
	pvmS := j90.Speedup(app, maxP)[maxP-1]
	mpiS := j90.SpeedupWithComm(app, 100e6, 12e-6, maxP)[maxP-1]
	var sb strings.Builder
	fmt.Fprintf(&sb, "what-if (Section 4.1): the J90 with a zero-copy MPI rewrite, %s, cut-off\n", sys.Name)
	fmt.Fprintf(&sb, "  %-28s speedup(%d) = %.2f\n", "PVM/Sciddle (3 MB/s, 10 ms):", maxP, pvmS)
	fmt.Fprintf(&sb, "  %-28s speedup(%d) = %.2f\n", "MPI (100 MB/s, 12 us):", maxP, mpiS)
	appP := app
	appP.P = maxP
	fmt.Fprintf(&sb, "  a1 needed for 4x at p=%d: ", maxP)
	if need := j90.RequiredCommRate(appP, j90.Total(app)/4); math.IsInf(need, 1) {
		sb.WriteString("unreachable: computation, synchronization and per-message overhead alone exceed T(1)/4\n")
	} else {
		fmt.Fprintf(&sb, "%.1f MB/s\n", need/1e6)
	}
	return Output{
		Files:   map[string]string{"extra_whatif.txt": sb.String()},
		Metrics: []Metric{{Unit: fmt.Sprintf("mpi-speedup@%d", maxP), Value: mpiS}},
	}, nil
}
