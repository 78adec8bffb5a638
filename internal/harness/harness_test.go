package harness

import (
	"math"
	"strings"
	"testing"

	"opalperf/internal/core"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// testSizes returns scaled-down systems: large enough that the
// communication bandwidth term is identifiable against the per-message
// overhead (as it is at paper scale), small enough to stay fast.
func testSizes() map[string]*molecule.System {
	return map[string]*molecule.System{
		"small":  molecule.TestComplex(110, 190, 44),
		"medium": molecule.TestComplex(300, 500, 42),
		"large":  molecule.TestComplex(430, 870, 43),
	}
}

func testSuite() Suite {
	s := NewSuite(testSizes())
	s.Steps = 4
	return s
}

func TestRunProducesBreakdown(t *testing.T) {
	out, err := Run(RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["medium"],
		Opts:     md.Options{Accounting: true, Minimize: true},
		Servers:  3,
		Steps:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := out.Breakdown
	if b.ParComp <= 0 || b.SeqComp <= 0 || b.Comm <= 0 || b.Sync <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if math.Abs(b.Sum()-out.Wall) > 1e-9*out.Wall {
		t.Errorf("sum %v != wall %v", b.Sum(), out.Wall)
	}
	if len(out.Result.Steps) != 3 {
		t.Errorf("steps = %d", len(out.Result.Steps))
	}
}

func TestRunSerialSpec(t *testing.T) {
	out, err := Run(RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["small"],
		Opts:     md.Options{Minimize: true},
		Servers:  0, // serial engine
		Steps:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Wall <= 0 {
		t.Error("no wall time")
	}
	if out.Breakdown.ParComp != 0 {
		t.Error("serial run should have no parallel computation")
	}
}

func TestMeasurementOfCounts(t *testing.T) {
	spec := RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["small"],
		Opts:     md.Options{Accounting: true, Minimize: true, UpdateEvery: 2},
		Servers:  2,
		Steps:    4,
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasurementOf(spec, out)
	n := spec.Sys.N
	// 2 updates in 4 steps, each checking the full triangle.
	wantChecks := 2.0 * float64(n*(n-1)/2)
	if m.TotalChecks != wantChecks {
		t.Errorf("checks = %v, want %v", m.TotalChecks, wantChecks)
	}
	if m.App.U != 0.5 || m.App.P != 2 || m.App.S != 4 {
		t.Errorf("app = %+v", m.App)
	}
	if m.Par <= 0 || m.Comm <= 0 {
		t.Errorf("measurement = %+v", m)
	}
}

// TestCalibrationFitsSimulation is the heart of Figure 4: the analytic
// model, fitted on the reduced factorial design of instrumented runs,
// reproduces the measured totals closely.
func TestCalibrationFitsSimulation(t *testing.T) {
	s := testSuite()
	rep, err := s.Calibrate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != 28 {
		t.Fatalf("cases = %d, want the 7x2^(3-1) design", len(rep.Cases))
	}
	if rep.MAPE > 0.10 {
		t.Errorf("MAPE = %.3f, want < 10%% (the paper calls the fit excellent)", rep.MAPE)
	}
	if rep.R2 < 0.97 {
		t.Errorf("R2 = %.4f", rep.R2)
	}
	// A positive rate a1 and no negative or NaN parameter (a NaN fails
	// every comparison).
	if m := rep.Machine; !(m.A1 > 0 && m.B1 >= 0 && m.A2 >= 0 && m.A3 >= 0 && m.A4 >= 0 && m.B5 >= 0) {
		t.Fatalf("invalid fitted parameters %+v", m)
	}
	// The fitted communication parameters land near the platform's
	// configured key data.
	j90 := platform.J90()
	if got, want := rep.Machine.A1, j90.CommMBs*1e6; math.Abs(got-want)/want > 0.3 {
		t.Errorf("fitted a1 = %.3g, platform %.3g", got, want)
	}
	if got, want := rep.Machine.B1, j90.LatencySec; math.Abs(got-want)/want > 0.3 {
		t.Errorf("fitted b1 = %.3g, platform %.3g", got, want)
	}
	if got, want := rep.Machine.B5, j90.SyncSec; math.Abs(got-want)/want > 0.3 {
		t.Errorf("fitted b5 = %.3g, platform %.3g", got, want)
	}
}

// TestCalibratedModelPredictsHeldOutCase cross-validates: a configuration
// outside the calibration design is predicted within a modest error.
func TestCalibratedModelPredictsHeldOutCase(t *testing.T) {
	s := testSuite()
	rep, err := s.Calibrate(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Held out: small size (not in the fraction), p=6, cut-off, partial.
	spec, err := s.SpecFor(map[string]string{
		FactorServers: "6", FactorSize: "small",
		FactorCutoff: LevelWithCutoff, FactorUpdate: LevelPartUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasurementOf(spec, out)
	measured := m.Par + m.Seq + m.Comm + m.Sync
	predicted := rep.Machine.Total(m.App)
	if rel := math.Abs(predicted-measured) / measured; rel > 0.25 {
		t.Errorf("held-out prediction off by %.1f%%: measured %.4g, predicted %.4g",
			100*rel, measured, predicted)
	}
}

func TestFigureBreakdownsShapes(t *testing.T) {
	// Large enough that the J90's 10 ms messages do not swamp the
	// computation — the qualitative claims of Figure 1 are about the
	// compute-dominated regime.
	sys := molecule.TestComplex(300, 500, 42)
	panels, err := FigureBreakdowns(platform.J90(), sys, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("panels = %d", len(panels))
	}
	// Panel a (no cut-off): parallel computation dominates and shrinks
	// with servers.
	a := panels[0]
	if a.Breakdowns[0].ParComp < a.Breakdowns[0].Comm {
		t.Error("no cut-off run should be compute dominated at p=1")
	}
	if !(a.Breakdowns[3].ParComp < a.Breakdowns[0].ParComp/2) {
		t.Error("parallel computation should shrink with servers")
	}
	// Communication grows with servers in every panel.
	for _, p := range panels {
		if !(p.Breakdowns[len(p.Breakdowns)-1].Comm > p.Breakdowns[0].Comm) {
			t.Errorf("%s: comm did not grow with servers", p.Label)
		}
	}
	// Panel c (cut-off, full update) has a much smaller parallel part
	// than panel a.
	c := panels[2]
	if !(c.Breakdowns[0].ParComp < a.Breakdowns[0].ParComp/2) {
		t.Error("cut-off should reduce the parallel computation drastically")
	}
	// Charts and tables render.
	if !strings.Contains(a.Chart(), "p=1") || !strings.Contains(a.Table().String(), "servers") {
		t.Error("panel rendering broken")
	}
}

func TestPredictFigureShapes(t *testing.T) {
	sys := molecule.Antennapedia()
	pls := platform.All()
	// No cut-off: compute bound, everyone speeds up; fast CoPs beats the
	// J90 in absolute time.
	no := PredictFigure(pls, sys, NoCutoff, 1, 10, 7)
	byName := map[string]PredictionSeries{}
	for _, s := range no {
		byName[s.Platform] = s
	}
	fast := byName[platform.FastCoPs().Name]
	j90 := byName[platform.J90().Name]
	t3e := byName[platform.T3E900().Name]
	if fast.Times[6] >= j90.Times[6] {
		t.Errorf("fast CoPs t(7)=%.1f should beat J90 %.1f (no cut-off)", fast.Times[6], j90.Times[6])
	}
	if fast.Speedups[6] < 4 || t3e.Speedups[6] < 4 {
		t.Errorf("well-connected platforms should reach speed-up >= 4: fast %.1f, t3e %.1f",
			fast.Speedups[6], t3e.Speedups[6])
	}
	// Cut-off: communication bound; J90 and slow CoPs turn into
	// slow-down beyond ~3 servers (the paper's Chart 5d).
	cut := PredictFigure(pls, sys, EffectiveCutoff, 1, 10, 7)
	byName = map[string]PredictionSeries{}
	for _, s := range cut {
		byName[s.Platform] = s
	}
	j90c := byName[platform.J90().Name]
	slow := byName[platform.SlowCoPs().Name]
	for _, s := range []PredictionSeries{j90c, slow} {
		best, bestP := 0.0, 0
		for i, v := range s.Speedups {
			if v > best {
				best, bestP = v, i+1
			}
		}
		if bestP > 4 {
			t.Errorf("%s cut-off speed-up keeps rising to p=%d; should break early", s.Platform, bestP)
		}
		if s.Speedups[6] >= best {
			t.Errorf("%s should slow down at 7 servers", s.Platform)
		}
	}
	// T3E has the best cut-off speed-up but not the best absolute time.
	t3ec := byName[platform.T3E900().Name]
	fastc := byName[platform.FastCoPs().Name]
	smpc := byName[platform.SMPCoPs().Name]
	if !(t3ec.Speedups[6] > fastc.Speedups[6] && t3ec.Speedups[6] > smpc.Speedups[6]) {
		t.Errorf("T3E should have the best cut-off speed-up: t3e %.2f fast %.2f smp %.2f",
			t3ec.Speedups[6], fastc.Speedups[6], smpc.Speedups[6])
	}
	if !(fastc.Times[6] < t3ec.Times[6] || smpc.Times[6] < t3ec.Times[6]) {
		t.Errorf("CoPs should still beat the T3E in absolute time at p=7: fast %.2f smp %.2f t3e %.2f",
			fastc.Times[6], smpc.Times[6], t3ec.Times[6])
	}
}

func TestPredictionRendering(t *testing.T) {
	sys := molecule.SmallComplex()
	series := PredictFigure(platform.All(), sys, EffectiveCutoff, 1, 10, 7)
	tc, sc := PredictionCharts(series, "test")
	if !strings.Contains(tc, "execution time") || !strings.Contains(sc, "speed-up") {
		t.Error("chart titles missing")
	}
	tab := PredictionTable(series, "test")
	if len(tab.Rows) != len(series) {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	rows, err := Table1(platform.All())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Platform] = r
	}
	j90 := byName[platform.J90().Name]
	t3e := byName[platform.T3E900().Name]
	fast := byName[platform.FastCoPs().Name]
	smp := byName[platform.SMPCoPs().Name]
	// Paper Table 1: J90 6.18s/497.55MFlop/80MF/s; T3E 9.56s; fast 4.85s.
	if math.Abs(j90.ExecSeconds-6.18) > 0.4 {
		t.Errorf("J90 kernel time = %.2f, want ~6.18", j90.ExecSeconds)
	}
	if math.Abs(j90.CountedMFlop-497.55) > 25 {
		t.Errorf("J90 counted = %.1f, want ~497", j90.CountedMFlop)
	}
	if math.Abs(t3e.ExecSeconds-9.56) > 0.6 {
		t.Errorf("T3E kernel time = %.2f, want ~9.56", t3e.ExecSeconds)
	}
	if math.Abs(fast.ExecSeconds-4.85) > 0.3 {
		t.Errorf("fast kernel time = %.2f, want ~4.85", fast.ExecSeconds)
	}
	if math.Abs(fast.CountedMFlop-325.8) > 1 {
		t.Errorf("fast counted = %.1f, want 325.8 (canonical)", fast.CountedMFlop)
	}
	// Adjusted rates: SMP CoPs comparable to or better than the J90;
	// T3E clearly below the J90.
	if smp.AdjustedMFlop < j90.AdjustedMFlop*0.9 {
		t.Errorf("SMP adjusted %.1f should rival J90 %.1f", smp.AdjustedMFlop, j90.AdjustedMFlop)
	}
	if t3e.AdjustedMFlop > j90.AdjustedMFlop*0.8 {
		t.Errorf("T3E adjusted %.1f should be well below J90 %.1f", t3e.AdjustedMFlop, j90.AdjustedMFlop)
	}
	if j90.RelativePct != 100 {
		t.Errorf("J90 relative = %v", j90.RelativePct)
	}
	if !strings.Contains(Table1Report(rows).String(), "Table 1") {
		t.Error("report rendering broken")
	}
}

func TestTable2MatchesConfiguredParameters(t *testing.T) {
	rows, err := Table2(platform.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var pl *platform.Platform
		for _, p := range platform.All() {
			if p.Name == r.Platform {
				pl = p
			}
		}
		if pl == nil {
			t.Fatalf("unknown row %q", r.Platform)
		}
		// The ping-pong microbenchmark recovers the configured key data
		// (bandwidth within 10%, latency within 5%).
		if math.Abs(r.ObservedMBs-pl.CommMBs)/pl.CommMBs > 0.10 {
			t.Errorf("%s observed %.2f MB/s, configured %.2f", r.Platform, r.ObservedMBs, pl.CommMBs)
		}
		if math.Abs(r.LatencySec-pl.LatencySec)/pl.LatencySec > 0.05 {
			t.Errorf("%s latency %.3g, configured %.3g", r.Platform, r.LatencySec, pl.LatencySec)
		}
	}
	if !strings.Contains(Table2Report(rows).String(), "Table 2") {
		t.Error("report rendering broken")
	}
}

func TestMemoryHierarchyTable(t *testing.T) {
	rows, err := MemoryHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: 35 / 32 / 8 MFlop/s.
	want := []float64{35, 32, 8}
	for i, r := range rows {
		if math.Abs(r.RateMFlops-want[i]) > 1.5 {
			t.Errorf("%s rate = %.1f, want ~%.0f", r.Level, r.RateMFlops, want[i])
		}
	}
	if math.Abs(rows[2].Relative-0.25) > 0.02 {
		t.Errorf("out-of-core relative = %.2f, want 0.25", rows[2].Relative)
	}
	if !strings.Contains(MemoryReport(rows).String(), "working set") {
		t.Error("report rendering broken")
	}
}

func TestSpaceReportRenders(t *testing.T) {
	s := SpaceReport(molecule.SmallComplex(), 0, 2)
	if !strings.Contains(s.String(), "pair list") {
		t.Error("space report missing pair list")
	}
}

func TestParameterSpaceTable(t *testing.T) {
	s := testSuite()
	tab := ParameterSpaceTable(s)
	str := tab.String()
	for _, want := range []string{"servers", "cutoff", "update", "84", "28"} {
		if !strings.Contains(str, want) {
			t.Errorf("parameter space table missing %q:\n%s", want, str)
		}
	}
}

func TestCalibrationTableRenders(t *testing.T) {
	truth := core.MachineFor(platform.J90(), 0.6)
	app := core.AppFor(molecule.SmallComplex(), 10, 1, 3, 10)
	rep := core.Report{
		Machine: truth,
		Cases: []core.CaseFit{{
			App:       app,
			Measured:  core.Breakdown{Par: 1, Seq: 0.1, Comm: 0.2, Sync: 0.05},
			Predicted: truth.Predict(app),
		}},
		MAPE: 0.03, R2: 0.999,
	}
	s := CalibrationTable(rep).String()
	if !strings.Contains(s, "MAPE") || !strings.Contains(s, "10A") {
		t.Errorf("calibration table:\n%s", s)
	}
	if !strings.Contains(FittedParamsTable(truth).String(), "a3") {
		t.Error("params table broken")
	}
}

func TestSizesScaled(t *testing.T) {
	small := Sizes(0.05)
	if small["medium"].N >= molecule.Antennapedia().N {
		t.Error("scaled sizes should be smaller")
	}
	full := Sizes(1)
	if full["medium"].N != 4289 || full["large"].N != 6289 {
		t.Error("full sizes should be the paper's")
	}
}
