package harness

import (
	"fmt"

	"opalperf/internal/core"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
	"opalperf/internal/report"
	"opalperf/internal/stats"
)

// Model validation: beyond calibrating against the reference platform,
// run the *simulated* Opal on the other platforms too and compare with
// the analytic prediction derived from their key data.  This quantifies
// the cost of the paper's one-rate parameter extraction (Section 4.1) —
// platforms whose intrinsic costs match the canonical weights validate
// tightly, the vector/MPP machines show the extraction's bias.

// ValidationCase is one platform/configuration comparison.
type ValidationCase struct {
	Platform  string
	Servers   int
	Cutoff    bool
	Simulated float64 // wall seconds from the instrumented simulation
	Predicted float64 // model total from the platform's key data
}

// RelErr returns |pred-sim|/sim.
func (v ValidationCase) RelErr() float64 {
	return stats.RelErr(v.Predicted, v.Simulated)
}

// ValidatePrediction runs Opal on every platform at the given server
// counts and compares with the model prediction.
func ValidatePrediction(pls []*platform.Platform, sys *molecule.System,
	cutoff float64, updateEvery, steps int, servers []int) ([]ValidationCase, error) {
	// Flatten the platforms x servers grid so the pool runs every
	// simulation concurrently; results come back in the same order the
	// sequential nested loop produced.
	type cell struct {
		pl *platform.Platform
		p  int
	}
	var grid []cell
	for _, pl := range pls {
		for _, p := range servers {
			grid = append(grid, cell{pl, p})
		}
	}
	specs := make([]RunSpec, len(grid))
	for i, g := range grid {
		specs[i] = paperSpec(g.pl, sys, cutoff, updateEvery, g.p, steps)
	}
	outs, err := RunMany(specs)
	if err != nil {
		return nil, err
	}
	out := make([]ValidationCase, len(grid))
	for i, g := range grid {
		mach := core.MachineFor(g.pl, sys.Gamma())
		app := core.AppFor(sys, cutoff, updateEvery, g.p, steps)
		out[i] = ValidationCase{
			Platform:  g.pl.Name,
			Servers:   g.p,
			Cutoff:    app.Cutoff,
			Simulated: outs[i].Wall,
			Predicted: mach.Total(app),
		}
	}
	return out, nil
}

// ValidationTable renders the comparison.
func ValidationTable(cases []ValidationCase) *report.Table {
	t := &report.Table{
		Title:   "model prediction vs instrumented simulation",
		Headers: []string{"platform", "p", "cutoff", "simulated[s]", "predicted[s]", "err"},
	}
	for _, c := range cases {
		cut := "no"
		if c.Cutoff {
			cut = "10A"
		}
		t.AddRowf(3, c.Platform, c.Servers, cut, c.Simulated, c.Predicted,
			fmt.Sprintf("%+.1f%%", 100*(c.Predicted-c.Simulated)/c.Simulated))
	}
	return t
}

// ClusterReport compares a single shared-memory node against the cluster
// platform cl (platform.J90Cluster) for growing server counts — the
// scaling path the paper's site planned.  Processes are placed
// round-robin-block, CPUsPerNode to a node: the client shares node 0 with
// the first servers.
func ClusterReport(cl *platform.Platform, sys *molecule.System,
	cutoff float64, steps int, serverCounts []int) (*report.Table, error) {
	t := &report.Table{
		Title:   cl.Name + " vs single node",
		Headers: []string{"servers", "nodes used", "single-node[s]", "cluster[s]"},
	}
	single := platform.J90()
	type row struct{ singleWall, clusterWall string }
	rows, err := parallel.Map(serverCounts, func(_ int, p int) (row, error) {
		opts := md.Options{Cutoff: cutoff, Accounting: true, Minimize: true}
		clOut, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: p, Steps: steps})
		if err != nil {
			return row{}, err
		}
		singleWall := "n/a (too few cpus)"
		if p < single.MaxProcs {
			out, err := Run(RunSpec{Platform: single, Sys: sys, Opts: opts, Servers: p, Steps: steps})
			if err != nil {
				return row{}, err
			}
			singleWall = fmt.Sprintf("%.3f", out.Wall)
		}
		return row{singleWall, fmt.Sprintf("%.3f", clOut.Wall)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range serverCounts {
		nodes := (p + 1 + cl.CPUsPerNode - 1) / cl.CPUsPerNode
		t.AddRow(fmt.Sprint(p), fmt.Sprint(nodes), rows[i].singleWall, rows[i].clusterWall)
	}
	return t, nil
}

// ValidationSummary returns the mean relative error per platform.
func ValidationSummary(cases []ValidationCase) map[string]float64 {
	sums := map[string][]float64{}
	for _, c := range cases {
		sums[c.Platform] = append(sums[c.Platform], c.RelErr())
	}
	out := map[string]float64{}
	for pl, errs := range sums {
		out[pl] = stats.Mean(errs)
	}
	return out
}
