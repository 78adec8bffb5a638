package opalperf

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"opalperf/internal/molecule"
)

var update = flag.Bool("update", false, "rewrite testdata/fidelity.golden and testdata/allocs.golden")

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

// golden returns the contents of the golden file path, first rewriting
// it with got under -update.
func golden(t *testing.T, path, got string) string {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	return string(want)
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
	want := golden(t, path, got.String())
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
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

// TestAllocsGolden holds the heap allocations of one run of every
// fidelityEvals eval and every scenarioThroughput row to
// testdata/allocs.golden.  Unlike ns/op an allocation count does not
// depend on the host, so it can gate: a count that moves past the
// tolerance either way is a behaviour change to explain, and a real drop
// is refreshed with `go test . -run AllocsGolden -update`.
// AllocsPerRun pins GOMAXPROCS to 1, so no handler run-ahead helper
// starts and every count is the in-place path's.  A collection that
// lands mid-run, at a point set by the heap earlier evals left, drops
// pooled objects the run then allocates again, which moved counts by up
// to ±8; so each eval starts from a collected heap and the collector
// runs only at a 256 MiB cap.  Fig4Calibration (~420 MB a run) still
// reaches the cap, and every collection adds two allocations that are not
// the program's: net/netip's package initialization (linked through net,
// which internal/telemetry imports) calls unique.Make, which registers the
// unique package's map cleanup, and the runtime runs that cleanup on its
// own goroutine after each collection, allocating two objects, which
// AllocsPerRun counts with the rest of the process's.  So each collection
// the measurement saw grants two counts, and an eval that saw none is
// held exact.  The runtime also
// fills a type assertion's call-site cache on a random one in ~1024
// misses, an allocation that lands in whatever run is going on
// (math/rand.New's Source64 assertion moved ScenarioThroughput/mix=chaos
// by one in 1 of 20 full runs); so each eval is measured twice and the
// fewer counts, while an allocation the program makes on every run
// shows in both.
func TestAllocsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	evals := fidelityEvals()
	for _, sc := range scenarioThroughput() {
		evals = append(evals, namedEval{"ScenarioThroughput/" + sc.name, sc.eval})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	var got strings.Builder
	collections := make([]float64, len(evals))
	for i, e := range evals {
		var err error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n := math.Inf(1)
		for range 2 {
			debug.FreeOSMemory()
			n = min(n, testing.AllocsPerRun(1, func() { _, err = e.eval() }))
		}
		runtime.ReadMemStats(&m1)
		collections[i] = float64(m1.NumGC - m0.NumGC - 2) // not FreeOSMemory's
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(&got, "%s %.0f\n", e.name, n)
	}
	const path = "testdata/allocs.golden"
	want := golden(t, path, got.String())
	gl, wl := strings.Fields(got.String()), strings.Fields(want)
	if len(gl) != len(wl) {
		t.Fatalf("%s holds %d evals, the test measures %d", path, len(wl)/2, len(gl)/2)
	}
	for i := 0; i < len(gl); i += 2 {
		g, _ := strconv.ParseFloat(gl[i+1], 64)
		w, err := strconv.ParseFloat(wl[i+1], 64)
		// 0.01 % holds every eval under 10 000 allocations exact and
		// leaves Fig4Calibration's ~53 000 five counts.
		if gl[i] != wl[i] || err != nil || math.Abs(g-w) > 0.0001*w+2*collections[i/2] {
			t.Errorf("%s: got %s %s allocs, want %s %s", path, gl[i], gl[i+1], wl[i], wl[i+1])
		}
	}
}
