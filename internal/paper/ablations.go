package paper

import (
	"fmt"
	"strings"

	"opalperf/internal/core"
	"opalperf/internal/decomp"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/report"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// The ablations: the design choices DESIGN.md calls out, each one run
// with and without the choice on the scale's complexes.  Their server
// counts are fixed; their steps are capped at the ablation's own count.

// breakdownTable renders one row per run: its label, wall time and the
// five components.
func breakdownTable(title, label string, labels []string, outs []harness.RunOutcome) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{label, "wall[s]", "par", "seq", "comm", "sync", "idle"},
	}
	for i, out := range outs {
		b := out.Breakdown
		t.AddRowf(4, labels[i], out.Wall, b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle)
	}
	return t
}

// accountingAblation is Section 3.3: the cost of the barrier-separated
// timing mode on the fast CoPs at four servers (the paper accepts < 5%),
// and the share of the wall clock its components account for.
func accountingAblation(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	var specs []harness.RunSpec
	for _, acct := range []bool{false, true} {
		specs = append(specs, harness.RunSpec{
			Platform: platform.FastCoPs(), Sys: sys, Servers: 4, Steps: s.Steps,
			Opts: md.Options{Accounting: acct, Minimize: true},
		})
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	overhead := 100 * (outs[1].Wall - outs[0].Wall) / outs[0].Wall
	var sb strings.Builder
	breakdownTable(fmt.Sprintf("Section 3.3 — accounting barriers, %s, 4 servers, %d steps, %s",
		sys.Name, s.Steps, platform.FastCoPs().Name),
		"mode", []string{"overlapped", "accounting"}, outs).Render(&sb)
	for i, mode := range []string{"overlapped", "accounting"} {
		fmt.Fprintf(&sb, "%s: the components sum to %.1f%% of the wall clock\n", mode, 100*outs[i].Breakdown.Sum()/outs[i].Wall)
	}
	fmt.Fprintf(&sb, "accounting overhead: %.2f%% (the paper accepts < 5%%)\n", overhead)
	return Output{
		Files:   map[string]string{"ablation_accounting.txt": sb.String()},
		Metrics: []Metric{{Unit: "overhead-%", Value: overhead}},
	}, nil
}

// evenOddLevels are the server counts of the even/odd ablation.
var evenOddLevels = []int{2, 3, 4, 5}

// evenOddAblation is the Section 2.4 anomaly across server counts: the
// measured load imbalance of the pseudo-random deal at up to three steps
// beside the imbalance of the deal itself, the pair checks it hands each
// server.
func evenOddAblation(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	specs := make([]harness.RunSpec, len(evenOddLevels))
	for i, p := range evenOddLevels {
		specs[i] = paperSpec(platform.J90(), sys, 0, 0, p, min(s.Steps, 3))
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Section 2.4 — load imbalance vs servers, %s, lcg deal, J90", sys.Name),
		Headers: []string{"servers", "measured imbalance", "deal imbalance"},
	}
	var ms []Metric
	for i, p := range evenOddLevels {
		imb := outs[i].Breakdown.Imbalance()
		deal := pairlist.AssignmentStats(pairlist.Owners(sys.N, p, pairlist.LCG, 0), p).Imbalance()
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.2f%%", 100*imb), fmt.Sprintf("%.2f%%", 100*deal))
		ms = append(ms, Metric{Row: fmt.Sprintf("p=%d", p), Unit: "imbalance-%", Value: 100 * imb})
	}
	return Output{Files: map[string]string{"ablation_evenodd.txt": t.String()}, Metrics: ms}, nil
}

// pairDistributionAblation is the anomaly's fix: the measured and the
// dealt imbalance of the pseudo-random deal against the balanced folded
// deal at four servers.
func pairDistributionAblation(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	strategies := []pairlist.Strategy{pairlist.LCG, pairlist.Folded}
	specs := make([]harness.RunSpec, len(strategies))
	for i, strat := range strategies {
		specs[i] = paperSpec(platform.J90(), sys, 0, 0, 4, min(s.Steps, 4))
		specs[i].Opts.Strategy = strat
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("pair distribution at 4 servers, %s, J90", sys.Name),
		Headers: []string{"deal", "measured imbalance", "deal imbalance"},
	}
	var ms []Metric
	for i, name := range []string{"lcg", "folded"} {
		imb := outs[i].Breakdown.Imbalance()
		deal := pairlist.AssignmentStats(pairlist.Owners(sys.N, 4, strategies[i], 0), 4).Imbalance()
		t.AddRow(name, fmt.Sprintf("%.2f%%", 100*imb), fmt.Sprintf("%.2f%%", 100*deal))
		ms = append(ms, Metric{Unit: name + "-imbalance-%", Value: 100 * imb})
	}
	return Output{Files: map[string]string{"ablation_pairdist.txt": t.String()}, Metrics: ms}, nil
}

// updateEveryLevels are the levels of the update sweep.
var updateEveryLevels = []int{1, 2, 5, 10}

// updateAblation sweeps the update parameter, the
// communication-computation balance factor of the design, at the 10 A
// cut-off on four servers.
func updateAblation(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	specs := make([]harness.RunSpec, len(updateEveryLevels))
	labels := make([]string, len(updateEveryLevels))
	for i, every := range updateEveryLevels {
		specs[i] = paperSpec(platform.J90(), sys, harness.EffectiveCutoff, every, 4, s.Steps)
		labels[i] = fmt.Sprintf("every %d", every)
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	var ms []Metric
	for i, every := range updateEveryLevels {
		ms = append(ms, Metric{Row: fmt.Sprintf("update=%d", every), Unit: "virtual-s", Value: outs[i].Wall})
	}
	t := breakdownTable(fmt.Sprintf("update sweep, %s, cut-off 10A, 4 servers, %d steps, J90", sys.Name, s.Steps),
		"list update", labels, outs)
	return Output{Files: map[string]string{"ablation_update.txt": t.String()}, Metrics: ms}, nil
}

// waterAblation is the Section 2.1 ablation: single-unit waters against
// three-site waters of the same small complex, at the cut-off on two
// servers.
func waterAblation(s Scale) (Output, error) {
	single := s.Sizes["small"]
	systems := []*molecule.System{single, single.ExpandWaters(1)}
	specs := make([]harness.RunSpec, len(systems))
	for i, sys := range systems {
		specs[i] = paperSpec(platform.J90(), sys, harness.EffectiveCutoff, 0, 2, min(s.Steps, 3))
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Section 2.1 — water model, %s, cut-off 10A, 2 servers, J90", single.Name),
		Headers: []string{"waters", "mass centers", "active pairs", "wall[s]"},
	}
	pairs := make([]int, len(outs))
	for i, name := range []string{"single-unit", "three-site"} {
		pairs[i] = outs[i].Result.Steps[0].ActivePairs
		t.AddRowf(4, name, systems[i].N, pairs[i], outs[i].Wall)
	}
	return Output{
		Files: map[string]string{"ablation_water.txt": t.String()},
		Metrics: []Metric{
			{Unit: "3site/single-time", Value: outs[1].Wall / outs[0].Wall},
			{Unit: "3site/single-pairs", Value: float64(pairs[1]) / float64(pairs[0])},
		},
	}, nil
}

// decompositionAblation compares the replicated-data engine against the
// spatial and force decompositions of Section 2.1 on the virtual T3E at
// four servers, beside the coordinates each ships per step.
func decompositionAblation(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	const p = 4
	steps := min(s.Steps, 4)
	rd, err := harness.Run(harness.RunSpec{
		Platform: platform.T3E900(), Sys: sys, Servers: p, Steps: steps,
		Opts: md.Options{Cutoff: harness.EffectiveCutoff, Minimize: true},
	})
	if err != nil {
		return Output{}, err
	}
	walls := []float64{rd.Wall, 0, 0}
	for i, f := range []func(pvm.Task, *molecule.System, decomp.Options, int, int) (*decomp.Result, error){decomp.RunSD, decomp.RunFD} {
		sim := pvm.NewSimVM(platform.T3E900(), nil)
		var res *decomp.Result
		var err error
		sim.SpawnRoot("coord", func(task pvm.Task) {
			res, err = f(task, sys, decomp.Options{Cutoff: harness.EffectiveCutoff}, p, steps)
		})
		if e := sim.Run(); e != nil {
			return Output{}, e
		}
		if err != nil {
			return Output{}, err
		}
		walls[1+i] = res.StepSeconds()
	}
	rdVol, fdVol, sdVol := decomp.CommVolumePerStep(sys, harness.EffectiveCutoff, p)
	t := &report.Table{
		Title: fmt.Sprintf("RD vs SD vs FD, %s, cut-off 10A, %d servers, %d steps, %s",
			sys.Name, p, steps, platform.T3E900().Name),
		Headers: []string{"decomposition", "wall[s]", "coordinates shipped per step"},
	}
	for i, name := range []string{"replicated data", "space", "force"} {
		t.AddRowf(4, name, walls[i], []int{rdVol, sdVol, fdVol}[i])
	}
	return Output{
		Files: map[string]string{"ablation_decomposition.txt": t.String()},
		Metrics: []Metric{
			{Unit: "rd-virtual-s", Value: walls[0]},
			{Unit: "sd-virtual-s", Value: walls[1]},
			{Unit: "fd-virtual-s", Value: walls[2]},
		},
	}, nil
}

// cellListAblation is the future-work optimization: the spatial-cell
// update against the O(n^2) scan of the original Opal on the
// update-dominated configuration (a 6 A cut-off, full update, four
// servers), beside the check-count ratio the cell geometry predicts.
func cellListAblation(s Scale) (Output, error) {
	sys := s.Sizes["large"]
	const cutoff = 6
	specs := make([]harness.RunSpec, 2)
	for i, cells := range []bool{false, true} {
		specs[i] = paperSpec(platform.J90(), sys, cutoff, 1, 4, min(s.Steps, 5))
		specs[i].Opts.CellList = cells
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return Output{}, err
	}
	speedup := outs[0].Wall / outs[1].Wall
	var sb strings.Builder
	breakdownTable(fmt.Sprintf("cell-list update, %s, cut-off %d A, 4 servers, J90", sys.Name, cutoff),
		"update", []string{"all pairs", "cell list"}, outs).Render(&sb)
	fmt.Fprintf(&sb, "measured speed-up %.2f; the cell geometry predicts %.2fx fewer checks (box %.1f A)\n",
		speedup, pairlist.CellSpeedup(sys.N, cutoff, sys.Box), sys.Box)
	return Output{
		Files: map[string]string{"ablation_celllist.txt": sb.String()},
		Metrics: []Metric{
			{Unit: "n2-update-s", Value: outs[0].Wall},
			{Unit: "cell-update-s", Value: outs[1].Wall},
			{Unit: "speedup", Value: speedup},
		},
	}, nil
}

// modelAblation evaluates the analytic model for the paper's medium
// complex on the J90 (γ = 0.633) at the cut-off and MaxP servers: the
// predicted terms, the break-even server count, the sensitivity to each
// platform parameter, eq. 3's (1-2γ) update time against the
// engine-exact one the calibration uses, and the update/energy crossover
// n* (Known deviations 2 and 6 of EXPERIMENTS.md).
func modelAblation(s Scale) (Output, error) {
	sys := molecule.Antennapedia()
	mach := core.MachineFor(platform.J90(), 0.633)
	app := core.AppFor(sys, harness.EffectiveCutoff, 1, s.MaxP, s.Steps)
	pred := mach.Predict(app)
	total := pred.Total()
	var sb strings.Builder
	fmt.Fprintf(&sb, "model, %s, cut-off 10A, %d servers, %d steps, %s\n", sys.Name, s.MaxP, s.Steps, mach.Name)
	fmt.Fprintf(&sb, "  predicted %.3f s: par %.3f, seq %.3f, comm %.3f, sync %.3f\n",
		total, pred.Par, pred.Seq, pred.Comm, pred.Sync)
	bestP, bestT := mach.OptimalServers(app, s.MaxP)
	fmt.Fprintf(&sb, "  break-even: %d servers (%.3f s)\n", bestP, bestT)
	sb.WriteString("  elasticities d ln T / d ln theta:")
	for _, e := range mach.Elasticities(app) {
		fmt.Fprintf(&sb, " %s %+.3f", e.Param, e.Value)
	}
	fmt.Fprintf(&sb, "\n  update time: engine-exact %.3f s, eq. 3 as printed %.3f s\n",
		mach.UpdateTime(app), mach.UpdateTimePaper(app))
	partial := core.AppFor(sys, harness.EffectiveCutoff, 10, s.MaxP, s.Steps)
	fmt.Fprintf(&sb, "  update/energy crossover n*: %.0f at full update, %.0f at update every 10 steps\n",
		mach.UpdateNbintCrossover(app), mach.UpdateNbintCrossover(partial))
	return Output{
		Files:   map[string]string{"ablation_model.txt": sb.String()},
		Metrics: []Metric{{Unit: "predicted-s", Value: total}},
	}, nil
}

// vectorizationAblation is the Section 2.6 side study: the isolated
// kernel on the J90 with vectorization on and off.
func vectorizationAblation(Scale) (Output, error) {
	var rows []Table1Row
	for _, pl := range []*platform.Platform{platform.J90(), platform.J90Scalar()} {
		r, err := KernelBench(pl)
		if err != nil {
			return Output{}, err
		}
		rows = append(rows, r)
	}
	t := &report.Table{
		Title:   "vectorization on/off — isolated Opal kernel on the J90",
		Headers: []string{"platform", "time[s]", "rate[MFlop/s]"},
	}
	for _, r := range rows {
		t.AddRowf(2, r.Platform, r.ExecSeconds, r.RateMFlops)
	}
	return Output{
		Files:   map[string]string{"ablation_vectorization.txt": t.String()},
		Metrics: []Metric{{Unit: "scalar/vector-time", Value: rows[1].ExecSeconds / rows[0].ExecSeconds}},
	}, nil
}

// samplingAblation is Section 3.2's warning about sampling profilers:
// one server's compute share of a traced Figure 1c run (four servers),
// sampled at a thousandth, a tenth and one whole step's time, against the
// counted share.  A sampler whose period is the step resonates with the
// phase structure.
func samplingAblation(s Scale) (Output, error) {
	spec := paperSpec(platform.J90(), s.Sizes["medium"], harness.EffectiveCutoff, 1, 4, s.Steps)
	spec.Recorder = trace.NewRecorder()
	out, err := harness.Run(spec)
	if err != nil {
		return Output{}, err
	}
	res := out.Result
	step := res.StepSeconds / float64(len(res.Steps))
	t := &report.Table{
		Title: fmt.Sprintf("sampling profiler vs counting, server 1, %s, cut-off 10A, 4 servers, step %.4f s",
			spec.Sys.Name, step),
		Headers: []string{"sampling period", "sampled compute share", "error vs counted"},
	}
	var ms []Metric
	for _, c := range []struct {
		name, unit string
		div        float64
	}{{"step/1000", "fine-bias-%", 1000}, {"step/10", "tenth-bias-%", 10}, {"step", "step-bias-%", 1}} {
		period := step / c.div
		shares := trace.SampleShares(out.Recorder, res.ServerTIDs[0], res.StartSeconds, res.EndSeconds, period)
		bias := trace.SamplingBias(out.Recorder, res.ServerTIDs[0], res.StartSeconds, res.EndSeconds, period)
		t.AddRow(c.name, fmt.Sprintf("%.1f%%", 100*shares[vm.SegCompute]), fmt.Sprintf("%.1f points", 100*bias))
		ms = append(ms, Metric{Unit: c.unit, Value: 100 * bias})
	}
	return Output{Files: map[string]string{"ablation_sampling.txt": t.String()}, Metrics: ms}, nil
}
