// Command figures regenerates every table and figure of the paper's
// evaluation into an output directory: the measured breakdowns of
// Figures 1-2, the parameter space of Figure 3, the calibration of
// Figure 4, the cross-platform predictions of Figures 5-6, Tables 1-2
// and the Section 2.6 memory and space tables, plus the extensions
// (cost ranking, model validation, J90 cluster, effect analysis and the
// Section 4.1 zero-copy MPI what-if).  It is the one front end of the
// paper's pipeline: micro-benchmarks, calibration and prediction.
//
// Examples:
//
//	figures                      # everything at scale 0.25 into out/
//	figures -scale 1 -out paper  # paper-scale problem sizes (minutes)
//	figures -only fig5,table1
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"opalperf/internal/core"
	"opalperf/internal/harness"
	"opalperf/internal/molecule"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
	"opalperf/internal/report"
)

// keys are the -only keys, in the order figures writes them.
var keys = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2", "mem", "space", "extras"}

func main() {
	var (
		outDir = flag.String("out", "out", "output directory")
		scale  = flag.Float64("scale", 0.25, "problem size scale for the measured figures (1 = paper sizes)")
		steps  = flag.Int("steps", 10, "simulation steps")
		maxP   = flag.Int("maxp", 7, "maximum number of servers")
		only   = flag.String("only", "", "comma-separated subset of "+strings.Join(keys, ", "))
		jobs   = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS); outputs are identical for any value")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)

	if *maxP < 1 || *steps < 1 {
		usage("-maxp %d -steps %d: need at least one server and one step", *maxP, *steps)
	}
	selected := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			if !slices.Contains(keys, k) {
				usage("unknown -only key %q (valid: %s)", k, strings.Join(keys, ", "))
			}
			selected[k] = true
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	want := func(k string) bool { return len(selected) == 0 || selected[k] }
	sizes := harness.Sizes(*scale)
	fullSizes := harness.Sizes(1)

	if want("fig1") {
		emitBreakdownFigure(*outDir, "fig1", sizes["medium"], *maxP, *steps)
	}
	if want("fig2") {
		emitBreakdownFigure(*outDir, "fig2", sizes["large"], *maxP, *steps)
	}
	if want("fig3") {
		suite := harness.NewSuite(sizes)
		suite.Steps = *steps
		suite.MaxServers = *maxP
		write(*outDir, "fig3_parameter_space.txt", harness.ParameterSpaceTable(suite).String())
	}
	if want("fig4") {
		suite := harness.NewSuite(sizes)
		suite.Steps = *steps
		suite.MaxServers = *maxP
		fmt.Println("figures: running the calibration design (fig4)...")
		rep, err := suite.Calibrate(nil)
		if err != nil {
			fatal(err)
		}
		var sb strings.Builder
		harness.FittedParamsTable(rep.Machine).Render(&sb)
		sb.WriteString("\n")
		harness.CalibrationTable(rep).Render(&sb)
		write(*outDir, "fig4_calibration.txt", sb.String())
	}
	if want("fig5") {
		emitPredictionFigure(*outDir, "fig5", fullSizes["medium"], *steps, *maxP)
	}
	if want("fig6") {
		emitPredictionFigure(*outDir, "fig6", fullSizes["large"], *steps, *maxP)
	}
	if want("table1") {
		rows, err := harness.Table1(platform.All())
		if err != nil {
			fatal(err)
		}
		write(*outDir, "table1_computation.txt", harness.Table1Report(rows).String())
	}
	if want("table2") {
		rows, err := harness.Table2(platform.All())
		if err != nil {
			fatal(err)
		}
		write(*outDir, "table2_communication.txt", harness.Table2Report(rows).String())
	}
	if want("mem") {
		rows, err := harness.MemoryHierarchy()
		if err != nil {
			fatal(err)
		}
		write(*outDir, "sec26_memory.txt", harness.MemoryReport(rows).String())
	}
	if want("space") {
		var sb strings.Builder
		harness.SpaceReport(fullSizes["large"], 0, 1).Render(&sb)
		sb.WriteString("\n")
		harness.SpaceReport(fullSizes["large"], harness.EffectiveCutoff, 1).Render(&sb)
		write(*outDir, "sec26_space.txt", sb.String())
	}
	if want("extras") {
		emitExtras(*outDir, sizes, fullSizes, *steps, *maxP)
	}
	fmt.Println("figures: done, see", *outDir)
}

func emitBreakdownFigure(dir, name string, sys *molecule.System, maxP, steps int) {
	fmt.Printf("figures: measuring %s breakdowns (%s)...\n", name, sys.Name)
	panels, err := harness.FigureBreakdowns(platform.J90(), sys, maxP, steps)
	if err != nil {
		fatal(err)
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
	write(dir, name+"_breakdowns.txt", sb.String())
	write(dir, name+"_breakdowns.csv", csv.CSV())
}

func emitPredictionFigure(dir, name string, sys *molecule.System, steps, maxP int) {
	var sb strings.Builder
	csv := &report.Table{Headers: []string{"config", "platform", "servers", "time_s", "speedup"}}
	for _, cfg := range []struct {
		cutoff float64
		label  string
	}{
		{harness.NoCutoff, "no cut-off"},
		{harness.EffectiveCutoff, "cut-off 10A"},
	} {
		series := harness.PredictFigure(platform.All(), sys, cfg.cutoff, 1, steps, maxP)
		title := fmt.Sprintf("%s, %s", sys.Name, cfg.label)
		tc, sc := harness.PredictionCharts(series, title)
		sb.WriteString(tc)
		sb.WriteString("\n")
		sb.WriteString(sc)
		sb.WriteString("\n")
		harness.PredictionTable(series, title).Render(&sb)
		sb.WriteString("\n")
		for _, s := range series {
			for i := range s.Times {
				csv.AddRowf(4, cfg.label, s.Platform, i+1, s.Times[i], s.Speedups[i])
			}
		}
	}
	write(dir, name+"_prediction.txt", sb.String())
	write(dir, name+"_prediction.csv", csv.CSV())
}

// emitExtras writes the beyond-the-paper outputs: the cost ranking, the
// zero-copy MPI what-if, the model-vs-simulation validation, the
// J90-cluster comparison and the factor effect analysis.
func emitExtras(dir string, sizes, fullSizes map[string]*molecule.System, steps, maxP int) {
	// Cost-effectiveness (1998 prices) on the paper-scale prediction.
	var sb strings.Builder
	series := harness.PredictFigure(platform.All(), fullSizes["medium"],
		harness.EffectiveCutoff, 1, steps, maxP)
	times := map[string]float64{}
	for _, s := range series {
		times[s.Platform] = s.Times[len(s.Times)-1]
	}
	fmt.Fprintf(&sb, "cost-effectiveness, medium complex, cut-off, %d servers:\n", maxP)
	for i, c := range platform.RankByCost(platform.All(), maxP, times) {
		fmt.Fprintf(&sb, "  %d. %s\n", i+1, c)
	}
	write(dir, "extra_cost.txt", sb.String())
	write(dir, "extra_whatif.txt", whatIf(fullSizes["medium"], steps, maxP))

	// Model-vs-simulation validation at the working scale.
	fmt.Println("figures: validating the model against simulations...")
	cases, err := harness.ValidatePrediction(platform.All(), sizes["medium"],
		harness.NoCutoff, 1, steps, []int{1, 4, 7})
	if err != nil {
		fatal(err)
	}
	var vb strings.Builder
	harness.ValidationTable(cases).Render(&vb)
	vb.WriteString("\nmean relative error per platform:\n")
	sum := harness.ValidationSummary(cases)
	for _, pl := range platform.All() {
		fmt.Fprintf(&vb, "  %-24s %.1f%%\n", pl.Name, 100*sum[pl.Name])
	}
	write(dir, "extra_validation.txt", vb.String())

	// Cluster of J90s over HIPPI.
	fmt.Println("figures: measuring the J90 cluster...")
	tab, err := harness.ClusterReport(platform.J90Cluster(8), sizes["medium"],
		harness.NoCutoff, minInt(steps, 3), []int{3, 7, 15})
	if err != nil {
		fatal(err)
	}
	write(dir, "extra_j90cluster.txt", tab.String())

	// Effect analysis over the 2^4 design.
	fmt.Println("figures: running the effect design...")
	suite := harness.NewSuite(sizes)
	suite.Steps = minInt(steps, 5)
	suite.MaxServers = maxP
	analyses, err := suite.MeasureEffects()
	if err != nil {
		fatal(err)
	}
	write(dir, "extra_effects.txt", harness.EffectsReport(analyses))
}

// whatIf is Section 4.1's suspicion made a number: the J90's cut-off
// speed-up at maxP servers under its PVM/Sciddle key data and under
// T3E-class zero-copy MPI figures, and the a1 the model needs for a
// four-fold speed-up there.
func whatIf(sys *molecule.System, steps, maxP int) string {
	j90 := core.MachineFor(platform.J90(), sys.Gamma())
	app := core.AppFor(sys, harness.EffectiveCutoff, 1, 1, steps)
	pvmS := j90.Speedup(app, maxP)
	mpiS := j90.SpeedupWithComm(app, 100e6, 12e-6, maxP)
	var sb strings.Builder
	fmt.Fprintf(&sb, "what-if (Section 4.1): the J90 with a zero-copy MPI rewrite, %s, cut-off\n", sys.Name)
	fmt.Fprintf(&sb, "  %-28s speedup(%d) = %.2f\n", "PVM/Sciddle (3 MB/s, 10 ms):", maxP, pvmS[maxP-1])
	fmt.Fprintf(&sb, "  %-28s speedup(%d) = %.2f\n", "MPI (100 MB/s, 12 us):", maxP, mpiS[maxP-1])
	appP := app
	appP.P = maxP
	fmt.Fprintf(&sb, "  a1 needed for 4x at p=%d: ", maxP)
	if need := j90.RequiredCommRate(appP, j90.Total(app)/4); math.IsInf(need, 1) {
		sb.WriteString("unreachable: computation, synchronization and per-message overhead alone exceed T(1)/4\n")
	} else {
		fmt.Fprintf(&sb, "%.1f MB/s\n", need/1e6)
	}
	return sb.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func write(dir, name, content string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("figures: wrote", path)
}

// usage reports a bad flag value and exits 2, writing nothing.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
