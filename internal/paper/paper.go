// Package paper is the paper's evaluation, held once as an ordered table:
// the measured breakdowns of Figures 1-2, the parameter space of Figure
// 3, the calibration of Figure 4, the cross-platform predictions of
// Figures 5-6, Tables 1-2, the Section 2.6 memory and space tables, the
// extensions beyond the paper and the ablations.  Each entry runs at a
// Scale and returns, from the same runs, the out/ files it declares and
// the named metrics it reports.  cmd/figures writes the files of the
// entries its -only keys select; the root BenchmarkPaper times every
// entry, and TestFidelityGolden and TestAllocsGolden hold its metrics and
// allocations, at BenchScale.
package paper

import (
	"slices"

	"opalperf/internal/molecule"
)

// Scale is what an entry runs at: the three problem sizes ("small",
// "medium", "large"), the simulation steps and the largest server count.
// The model's predictions and the space table use the paper's own
// complexes whatever the sizes, and the micro-benchmarks none.
type Scale struct {
	Sizes map[string]*molecule.System
	Steps int
	MaxP  int
}

// BenchScale is the scale the root benchmarks and goldens run at:
// reduced complexes of 325, 1070 and 1570 mass centres, 10 steps and up
// to seven servers.
func BenchScale() Scale {
	gen := func(name string, atoms, waters int, seed int64) *molecule.System {
		return molecule.Generate(molecule.Config{
			Name: name + " (bench)", SoluteAtoms: atoms, Waters: waters, Seed: seed, Interleave: true})
	}
	return Scale{
		Sizes: map[string]*molecule.System{
			"small":  gen("small", 115, 210, 44),
			"medium": gen("medium", 390, 680, 42),
			"large":  gen("large", 410, 1160, 43),
		},
		Steps: 10,
		MaxP:  7,
	}
}

// Metric is one value an entry reports: the fidelity golden's row
// "<entry>[/<Row>] <Unit>" and a benchmark metric.
type Metric struct {
	Row   string // a swept entry's level ("update=2"), else empty
	Unit  string
	Value float64
}

// Output is what one entry produces from one set of runs.
type Output struct {
	Files   map[string]string // out/ file name -> contents
	Metrics []Metric
}

// Eval is one entry of the table.
type Eval struct {
	Name  string   // the golden row and the sub-benchmark name
	Key   string   // the figures -only key that selects it
	Files []string // the out/ files it writes, none for a metric alone
	Run   func(Scale) (Output, error)
}

// Evals is the paper's evaluation in the order figures writes it.
var Evals = []Eval{
	{"Fig1Breakdown", "fig1", []string{"fig1_breakdowns.txt", "fig1_breakdowns.csv"}, breakdownFigure("fig1", "medium")},
	{"Fig2Breakdown", "fig2", []string{"fig2_breakdowns.txt", "fig2_breakdowns.csv"}, breakdownFigure("fig2", "large")},
	{"Fig3Design", "fig3", []string{"fig3_parameter_space.txt"}, designFigure},
	{"Fig4Calibration", "fig4", []string{"fig4_calibration.txt"}, calibrationFigure},
	{"Fig5Prediction", "fig5", []string{"fig5_prediction.txt", "fig5_prediction.csv"}, predictionFigure("fig5", molecule.Antennapedia)},
	{"Fig6Prediction", "fig6", []string{"fig6_prediction.txt", "fig6_prediction.csv"}, predictionFigure("fig6", molecule.LFB)},
	{"Table1Kernel", "table1", []string{"table1_computation.txt"}, table1Figure},
	{"Table2PingPong", "table2", []string{"table2_communication.txt"}, table2Figure},
	{"MemHierarchy", "mem", []string{"sec26_memory.txt"}, memoryFigure},
	{"SpaceModel", "space", []string{"sec26_space.txt"}, spaceFigure},
	{"EvalListRow", "space", nil, listPairs},
	{"CostRanking", "extras", []string{"extra_cost.txt"}, costExtra},
	{"WhatIf", "extras", []string{"extra_whatif.txt"}, whatIfExtra},
	{"PredictionValidation", "extras", []string{"extra_validation.txt"}, validationExtra},
	{"ClusterOfJ90s", "extras", []string{"extra_j90cluster.txt"}, clusterExtra},
	{"EffectAnalysis", "extras", []string{"extra_effects.txt"}, effectsExtra},
	{"AccountingOverhead", "ablations", []string{"ablation_accounting.txt"}, accountingAblation},
	{"EvenOddServers", "ablations", []string{"ablation_evenodd.txt"}, evenOddAblation},
	{"PairDistribution", "ablations", []string{"ablation_pairdist.txt"}, pairDistributionAblation},
	{"UpdateSweep", "ablations", []string{"ablation_update.txt"}, updateAblation},
	{"WaterModel", "ablations", []string{"ablation_water.txt"}, waterAblation},
	{"DecompositionComparison", "ablations", []string{"ablation_decomposition.txt"}, decompositionAblation},
	{"CellListAblation", "ablations", []string{"ablation_celllist.txt"}, cellListAblation},
	{"ModelEvaluation", "ablations", []string{"ablation_model.txt"}, modelAblation},
	{"Vectorization", "ablations", []string{"ablation_vectorization.txt"}, vectorizationAblation},
	{"SamplingProfiler", "ablations", []string{"ablation_sampling.txt"}, samplingAblation},
}

// Keys returns the -only keys in table order.
func Keys() []string {
	var keys []string
	for _, e := range Evals {
		if !slices.Contains(keys, e.Key) {
			keys = append(keys, e.Key)
		}
	}
	return keys
}
