package opalperf

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"opalperf/internal/molecule"
)

var updateFidelity = flag.Bool("update", false, "rewrite testdata/fidelity.golden")

// namedEval is a figure bench's eval under the benchmark's name.
type namedEval struct {
	name string
	eval eval
}

// fidelityEvals lists every deterministic value the root benchmarks
// report: the paper's figures and tables, the ablations and the model.
// BenchmarkScenarioThroughput is the one left out; its sims/s is host
// time.
func fidelityEvals() []namedEval {
	medium, large := benchSystem("medium"), benchSystem("large")
	evals := []namedEval{
		{"Fig1Breakdown", breakdownFigure(medium)},
		{"Fig2Breakdown", breakdownFigure(large)},
		{"Fig3Design", fig3Design(benchSuite())},
		{"Fig4Calibration", fig4Calibration(benchSuite())},
		{"Fig5Prediction", predictionFigure(molecule.Antennapedia())},
		{"Fig6Prediction", predictionFigure(molecule.LFB())},
		{"Table1Kernel", table1Kernel},
		{"Table2PingPong", table2PingPong},
		{"MemHierarchy", memHierarchy},
		{"SpaceModel", spaceModel(molecule.LFB())},
		{"AccountingOverhead", accountingOverhead(medium)},
		{"PairDistribution", pairDistribution(medium)},
		{"WaterModel", waterModel(benchSystem("small"))},
		{"DecompositionComparison", decompositionComparison(medium)},
		{"CellListAblation", cellListAblation(large)},
		{"ClusterOfJ90s", clusterOfJ90s(large)},
		{"PredictionValidation", predictionValidation(medium)},
		{"EvalListRow", evalListPairs},
		{"EvalListPerPair", evalListPairs},
		{"ModelEvaluation", func() ([]metric, error) {
			mach, app := benchModel()
			return []metric{{"predicted-s", mach.Total(app)}}, nil
		}},
	}
	for _, every := range updateEveryLevels {
		evals = append(evals, namedEval{fmt.Sprintf("UpdateSweep/update=%d", every), updateSweep(medium, every)})
	}
	for _, p := range evenOddLevels {
		evals = append(evals, namedEval{fmt.Sprintf("EvenOddServers/p=%d", p), evenOddServers(medium, p)})
	}
	return evals
}

// evalListPairs is the pair count the pair-kernel benches report.
func evalListPairs() ([]metric, error) {
	_, l, _, _ := benchEvalListSetup()
	return []metric{{"pairs", float64(l.NActive)}}, nil
}

// TestFidelityGolden recomputes every value of fidelityEvals and holds it
// to testdata/fidelity.golden by its bits: virtual time is deterministic,
// so any drift in a figure, a table row, the calibration fit or a model
// prediction is a behaviour change.  Known deviations (EXPERIMENTS.md)
// are pinned at their current values; a fix shows up here as a diff to
// explain.  Refresh with `go test . -run FidelityGolden -update`.
func TestFidelityGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range fidelityEvals() {
		ms, err := e.eval()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, m := range ms {
			fmt.Fprintf(&got, "%s %s %#016x %v\n", e.name, m.unit, math.Float64bits(m.value), m.value)
		}
	}
	const path = "testdata/fidelity.golden"
	if *updateFidelity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if bytes.Equal([]byte(got.String()), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}
