package paper

import (
	"fmt"
	"strings"

	"opalperf/internal/core"
	"opalperf/internal/harness"
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
	specs := make([]harness.RunSpec, len(grid))
	for i, g := range grid {
		specs[i] = paperSpec(g.pl, sys, cutoff, updateEvery, g.p, steps)
	}
	outs, err := harness.RunMany(specs)
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

// ClusterRow is one server count of the J90-cluster comparison.
type ClusterRow struct {
	Servers, Nodes int
	// Single is the single node's wall time, 0 where the node has too
	// few CPUs for the servers and the client.
	Single, Cluster float64
}

// ClusterRun compares a single shared-memory node against the cluster
// platform cl (platform.J90Cluster) for growing server counts — the
// scaling path the paper's site planned.  Processes are placed
// round-robin-block, CPUsPerNode to a node: the client shares node 0 with
// the first servers.
func ClusterRun(cl *platform.Platform, sys *molecule.System,
	cutoff float64, steps int, serverCounts []int) ([]ClusterRow, error) {
	single := platform.J90()
	return parallel.Map(serverCounts, func(_ int, p int) (ClusterRow, error) {
		clOut, err := harness.Run(paperSpec(cl, sys, cutoff, 0, p, steps))
		if err != nil {
			return ClusterRow{}, err
		}
		row := ClusterRow{Servers: p, Nodes: (p + cl.CPUsPerNode) / cl.CPUsPerNode, Cluster: clOut.Wall}
		if p < single.MaxProcs {
			out, err := harness.Run(paperSpec(single, sys, cutoff, 0, p, steps))
			if err != nil {
				return ClusterRow{}, err
			}
			row.Single = out.Wall
		}
		return row, nil
	})
}

// ClusterTable renders the comparison.
func ClusterTable(cl *platform.Platform, rows []ClusterRow) *report.Table {
	t := &report.Table{
		Title:   cl.Name + " vs single node",
		Headers: []string{"servers", "nodes used", "single-node[s]", "cluster[s]"},
	}
	for _, r := range rows {
		single := "n/a (too few cpus)"
		if r.Single != 0 {
			single = fmt.Sprintf("%.3f", r.Single)
		}
		t.AddRow(fmt.Sprint(r.Servers), fmt.Sprint(r.Nodes), single, fmt.Sprintf("%.3f", r.Cluster))
	}
	return t
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

// validationExtra runs the instrumented simulation of the medium complex
// on every platform at 1, 4 and 7 servers and compares it with the
// model's prediction from the platform's key data.
func validationExtra(s Scale) (Output, error) {
	cases, err := ValidatePrediction(platform.All(), s.Sizes["medium"],
		harness.NoCutoff, 1, s.Steps, []int{1, 4, 7})
	if err != nil {
		return Output{}, err
	}
	var sb strings.Builder
	ValidationTable(cases).Render(&sb)
	sb.WriteString("\nmean relative error per platform:\n")
	sum := ValidationSummary(cases)
	for _, pl := range platform.All() {
		fmt.Fprintf(&sb, "  %-24s %.1f%%\n", pl.Name, 100*sum[pl.Name])
	}
	return Output{
		Files: map[string]string{"extra_validation.txt": sb.String()},
		Metrics: []Metric{
			{Unit: "fastCoPs-err-%", Value: 100 * sum[platform.FastCoPs().Name]},
			{Unit: "t3e-err-%", Value: 100 * sum[platform.T3E900().Name]},
		},
	}, nil
}

// clusterExtra is Opal spanning HIPPI-connected J90s, the extension the
// paper's site planned, against one shared-memory node.
func clusterExtra(s Scale) (Output, error) {
	cl := platform.J90Cluster(8)
	rows, err := ClusterRun(cl, s.Sizes["medium"], harness.NoCutoff, min(s.Steps, 3), []int{3, 7, 15})
	if err != nil {
		return Output{}, err
	}
	return Output{
		Files: map[string]string{"extra_j90cluster.txt": ClusterTable(cl, rows).String()},
		Metrics: []Metric{
			{Unit: "single-p7-s", Value: rows[1].Single},
			{Unit: "cluster-p15-s", Value: rows[2].Cluster},
		},
	}, nil
}
