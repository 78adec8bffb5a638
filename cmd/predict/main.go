// Command predict evaluates the paper's Section 4: from each platform's
// key technical data (Tables 1-2) it predicts the Opal execution time and
// relative speed-up on the Cray T3E-900, the Cray J90 and the three
// Cluster-of-PCs flavours, reproducing Figures 5 (medium complex) and 6
// (large complex).
//
// Examples:
//
//	predict -size medium          # Figure 5
//	predict -size large           # Figure 6
//	predict -size medium -csv     # machine-readable series
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"opalperf/internal/core"

	"opalperf/internal/harness"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
	"opalperf/internal/report"
)

func main() {
	var (
		size     = flag.String("size", "medium", "problem size: small, medium, large")
		steps    = flag.Int("steps", 10, "simulation steps")
		maxP     = flag.Int("maxp", 7, "maximum number of servers")
		update   = flag.Int("update", 1, "steps between pair-list updates")
		csv      = flag.Bool("csv", false, "emit CSV instead of charts")
		validate = flag.Bool("validate", false, "also run the instrumented simulation on every platform and compare (slow)")
		scale    = flag.Float64("scale", 0.25, "problem scale for -validate runs")
		cost     = flag.Bool("cost", false, "rank platforms by 1998 price x predicted time")
		whatif   = flag.Bool("whatif", false, "the Section 4.1 what-if: the J90 with a zero-copy MPI rewrite")
		jobs     = flag.Int("jobs", 0, "concurrent simulations for -validate (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)

	sys, err := harness.Size(*size, 1)
	if err != nil {
		fatal(err)
	}
	pls := platform.All()

	for _, cfg := range []struct {
		cutoff float64
		label  string
	}{
		{harness.NoCutoff, "no cut-off (compute bound)"},
		{harness.EffectiveCutoff, "cut-off 10 A (communication bound)"},
	} {
		series := harness.PredictFigure(pls, sys, cfg.cutoff, *update, *steps, *maxP)
		title := fmt.Sprintf("%s, %s", sys.Name, cfg.label)
		if *csv {
			emitCSV(title, series)
			continue
		}
		tc, sc := harness.PredictionCharts(series, title)
		fmt.Println(tc)
		fmt.Println(sc)
		fmt.Println(harness.PredictionTable(series, title))
	}

	if *whatif {
		sysw := sys
		j90 := core.MachineFor(platform.J90(), sysw.Gamma())
		app := core.AppFor(sysw, harness.EffectiveCutoff, *update, 1, *steps)
		pvmS := j90.Speedup(app, *maxP)
		mpiS := j90.SpeedupWithComm(app, 100e6, 12e-6, *maxP)
		fmt.Println("what-if (Section 4.1): the J90 with a zero-copy MPI rewrite")
		fmt.Printf("  %-28s speedup(%d) = %.2f\n", "PVM/Sciddle (3 MB/s, 10 ms):", *maxP, pvmS[*maxP-1])
		fmt.Printf("  %-28s speedup(%d) = %.2f\n", "MPI (100 MB/s, 12 us):", *maxP, mpiS[*maxP-1])
		appP := app
		appP.P = *maxP
		need := j90.RequiredCommRate(appP, j90.Total(app)/4)
		if need > 0 && !mathIsInf(need) {
			fmt.Printf("  a1 needed for 4x at p=%d: %.1f MB/s\n", *maxP, need/1e6)
		}
		fmt.Println()
	}

	if *cost {
		fmt.Println("cost-effectiveness at 7 servers (1998 list prices, cut-off workload):")
		series := harness.PredictFigure(pls, sys, harness.EffectiveCutoff, *update, *steps, *maxP)
		times := map[string]float64{}
		for _, s := range series {
			times[s.Platform] = s.Times[len(s.Times)-1]
		}
		for i, c := range platform.RankByCost(pls, *maxP, times) {
			fmt.Printf("  %d. %s\n", i+1, c)
		}
		fmt.Println()
	}

	if *validate {
		fmt.Println("validating the model against instrumented simulations (scaled problem)...")
		vsys, err := harness.Size(*size, *scale)
		if err != nil {
			fatal(err)
		}
		cases, err := harness.ValidatePrediction(pls, vsys, harness.NoCutoff, 1, *steps, []int{1, 4, 7})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.ValidationTable(cases))
		fmt.Println("mean error per platform (the one-rate extraction bias of Section 4.1):")
		sum := harness.ValidationSummary(cases)
		for _, pl := range pls {
			fmt.Printf("  %-24s %.1f%%\n", pl.Name, 100*sum[pl.Name])
		}
	}
}

func emitCSV(title string, series []harness.PredictionSeries) {
	t := &report.Table{Headers: []string{"config", "platform", "servers", "time_s", "speedup"}}
	for _, s := range series {
		for i := range s.Times {
			t.AddRowf(4, title, s.Platform, i+1, s.Times[i], s.Speedups[i])
		}
	}
	fmt.Print(t.CSV())
}

func mathIsInf(v float64) bool { return math.IsInf(v, 0) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
