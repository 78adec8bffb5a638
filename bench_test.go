package opalperf

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches for the design choices called out in DESIGN.md.  The
// measured-figure benches run at a reduced problem scale so the whole
// suite finishes quickly; every shape they report is scale-stable, and
// cmd/figures -scale 1 regenerates the paper-scale outputs.
//
// What a figure bench reports is virtual time or a quantity derived from
// it, so it is deterministic: each one is an eval function that
// TestFidelityGolden (fidelity_test.go) holds to testdata/fidelity.golden
// bit for bit, and the bench only times it.

import (
	"fmt"
	"testing"

	"opalperf/internal/core"
	"opalperf/internal/decomp"
	"opalperf/internal/expdesign"
	"opalperf/internal/fault"
	"opalperf/internal/forcefield"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/trace"
)

// metric is one value a benchmark reports through b.ReportMetric.
type metric struct {
	unit  string
	value float64
}

// eval computes the metrics of one figure bench.
type eval func() ([]metric, error)

// benchEval times e and reports the metrics of its last run.
func benchEval(b *testing.B, e eval) {
	b.Helper()
	var ms []metric
	for i := 0; i < b.N; i++ {
		var err error
		if ms, err = e(); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		b.ReportMetric(m.value, m.unit)
	}
}

// benchSystem returns a consistent scaled-down complex per size label.
func benchSystem(label string) *molecule.System {
	switch label {
	case "medium":
		return molecule.Generate(molecule.Config{
			Name: "medium (bench)", SoluteAtoms: 390, Waters: 680, Seed: 42, Interleave: true})
	case "large":
		return molecule.Generate(molecule.Config{
			Name: "large (bench)", SoluteAtoms: 410, Waters: 1160, Seed: 43, Interleave: true})
	default:
		return molecule.Generate(molecule.Config{
			Name: "small (bench)", SoluteAtoms: 115, Waters: 210, Seed: 44, Interleave: true})
	}
}

// breakdownFigure is one panel of Figures 1-2: the measured breakdown of
// sys on the virtual J90.
func breakdownFigure(sys *molecule.System) eval {
	return func() ([]metric, error) {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts: md.Options{
				Cutoff:      harness.EffectiveCutoff,
				UpdateEvery: 1,
				Accounting:  true,
				Minimize:    true,
			},
			Servers: 4,
			Steps:   10,
		})
		if err != nil {
			return nil, err
		}
		return []metric{{"virtual-s", out.Wall}}, nil
	}
}

// BenchmarkFig1Breakdown regenerates one panel of Figure 1: the measured
// execution-time breakdown of the medium complex on the virtual J90.
func BenchmarkFig1Breakdown(b *testing.B) { benchEval(b, breakdownFigure(benchSystem("medium"))) }

// BenchmarkFig2Breakdown does the same for the large complex (Figure 2).
func BenchmarkFig2Breakdown(b *testing.B) { benchEval(b, breakdownFigure(benchSystem("large"))) }

func benchSuite() harness.Suite {
	return harness.NewSuite(map[string]*molecule.System{
		"small": benchSystem("small"), "medium": benchSystem("medium"), "large": benchSystem("large"),
	})
}

// fig3Design enumerates the paper's experimental designs.
func fig3Design(suite harness.Suite) eval {
	return func() ([]metric, error) {
		full := len(suite.FullCases())
		cases, err := suite.FractionCases()
		if err != nil {
			return nil, err
		}
		return []metric{{"full-cases", float64(full)}, {"fraction-cases", float64(len(cases))}}, nil
	}
}

// BenchmarkFig3Design enumerates the paper's experimental designs.
func BenchmarkFig3Design(b *testing.B) { benchEval(b, fig3Design(benchSuite())) }

// fig4Calibration runs the reduced factorial design and fits the model.
func fig4Calibration(suite harness.Suite) eval {
	suite.Steps = 5
	return func() ([]metric, error) {
		rep, err := suite.Calibrate(nil)
		if err != nil {
			return nil, err
		}
		return []metric{{"MAPE-%", 100 * rep.MAPE}, {"R2", rep.R2}}, nil
	}
}

// BenchmarkFig4Calibration runs the reduced factorial design and fits the
// model, reporting the fit quality of Figure 4.
func BenchmarkFig4Calibration(b *testing.B) { benchEval(b, fig4Calibration(benchSuite())) }

// predictionFigure is the cross-platform prediction of Figures 5-6: the
// J90 and T3E speed-ups at p=7.
func predictionFigure(sys *molecule.System) eval {
	return func() ([]metric, error) {
		var j90Speedup, t3eSpeedup float64
		for _, s := range harness.PredictFigure(platform.All(), sys, harness.EffectiveCutoff, 1, 10, 7) {
			switch s.Platform {
			case platform.J90().Name:
				j90Speedup = s.Speedups[6]
			case platform.T3E900().Name:
				t3eSpeedup = s.Speedups[6]
			}
		}
		return []metric{{"j90-speedup@7", j90Speedup}, {"t3e-speedup@7", t3eSpeedup}}, nil
	}
}

// BenchmarkFig5Prediction evaluates the cross-platform prediction for the
// paper's medium complex (Figure 5) at full scale — the model is analytic.
func BenchmarkFig5Prediction(b *testing.B) {
	benchEval(b, predictionFigure(molecule.Antennapedia()))
}

// BenchmarkFig6Prediction does the same for the large complex (Figure 6).
func BenchmarkFig6Prediction(b *testing.B) { benchEval(b, predictionFigure(molecule.LFB())) }

// table1Kernel is the isolated Opal kernel time on the J90 (Table 1).
func table1Kernel() ([]metric, error) {
	rows, err := harness.Table1(platform.All())
	if err != nil {
		return nil, err
	}
	var j90Time float64
	for _, r := range rows {
		if r.Platform == platform.J90().Name {
			j90Time = r.ExecSeconds
		}
	}
	return []metric{{"j90-kernel-s", j90Time}}, nil
}

// BenchmarkTable1Kernel measures the isolated Opal kernel on every
// platform (Table 1).
func BenchmarkTable1Kernel(b *testing.B) { benchEval(b, table1Kernel) }

// table2PingPong is the J90's observed ping-pong bandwidth (Table 2).
func table2PingPong() ([]metric, error) {
	rows, err := harness.Table2(platform.All())
	if err != nil {
		return nil, err
	}
	var j90MBs float64
	for _, r := range rows {
		if r.Platform == platform.J90().Name {
			j90MBs = r.ObservedMBs
		}
	}
	return []metric{{"j90-MB/s", j90MBs}}, nil
}

// BenchmarkTable2PingPong measures the communication parameters (Table 2).
func BenchmarkTable2PingPong(b *testing.B) { benchEval(b, table2PingPong) }

// memHierarchy is the out-of-core rate of the Section 2.6 working-set
// sweep.
func memHierarchy() ([]metric, error) {
	rows, err := harness.MemoryHierarchy()
	if err != nil {
		return nil, err
	}
	return []metric{{"out-of-core-MFlop/s", rows[2].RateMFlops}}, nil
}

// BenchmarkMemHierarchy reproduces the Section 2.6 working-set sweep.
func BenchmarkMemHierarchy(b *testing.B) { benchEval(b, memHierarchy) }

// spaceModel is the pair-list row of the Section 2.6 space-complexity
// table for the paper's large example.
func spaceModel(sys *molecule.System) eval {
	return func() ([]metric, error) {
		var pairListMB float64
		for _, e := range md.SpaceModel(sys, 0, 1) {
			if e.Name == "pair list" {
				pairListMB = float64(e.Bytes) / 1e6
			}
		}
		return []metric{{"pairlist-MB", pairListMB}}, nil
	}
}

// BenchmarkSpaceModel evaluates the Section 2.6 space-complexity table
// for the paper's large example.
func BenchmarkSpaceModel(b *testing.B) { benchEval(b, spaceModel(molecule.LFB())) }

// wallOf runs spec and returns its measured virtual time.
func wallOf(spec harness.RunSpec) (float64, error) {
	out, err := harness.Run(spec)
	return out.Wall, err
}

// imbalanceOf runs spec and returns its load imbalance.
func imbalanceOf(spec harness.RunSpec) (float64, error) {
	out, err := harness.Run(spec)
	return out.Breakdown.Imbalance(), err
}

// accountingOverhead is the Section 3.3 ablation: the cost of the
// barrier-separated timing mode (the paper accepts < 5%).
func accountingOverhead(sys *molecule.System) eval {
	spec := func(acct bool) harness.RunSpec {
		return harness.RunSpec{
			Platform: platform.FastCoPs(),
			Sys:      sys,
			Opts:     md.Options{Accounting: acct, Minimize: true},
			Servers:  4,
			Steps:    10,
		}
	}
	return func() ([]metric, error) {
		over, err := wallOf(spec(false))
		if err != nil {
			return nil, err
		}
		acct, err := wallOf(spec(true))
		if err != nil {
			return nil, err
		}
		return []metric{{"overhead-%", 100 * (acct - over) / over}}, nil
	}
}

// BenchmarkAccountingOverhead is the Section 3.3 ablation: the cost of
// the barrier-separated timing mode (the paper accepts < 5%).
func BenchmarkAccountingOverhead(b *testing.B) {
	benchEval(b, accountingOverhead(benchSystem("medium")))
}

// pairDistribution is the even-server-anomaly ablation: load imbalance of
// the pseudo-random (LCG) deal versus the balanced folded deal at an even
// server count.
func pairDistribution(sys *molecule.System) eval {
	spec := func(strat pairlist.Strategy) harness.RunSpec {
		return harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Accounting: true, Minimize: true, Strategy: strat},
			Servers:  4,
			Steps:    4,
		}
	}
	return func() ([]metric, error) {
		lcg, err := imbalanceOf(spec(pairlist.LCG))
		if err != nil {
			return nil, err
		}
		folded, err := imbalanceOf(spec(pairlist.Folded))
		if err != nil {
			return nil, err
		}
		return []metric{{"lcg-imbalance-%", 100 * lcg}, {"folded-imbalance-%", 100 * folded}}, nil
	}
}

// BenchmarkPairDistribution is the even-server-anomaly ablation: load
// imbalance of the pseudo-random (LCG) deal versus the balanced folded
// deal at an even server count.
func BenchmarkPairDistribution(b *testing.B) { benchEval(b, pairDistribution(benchSystem("medium"))) }

// updateEveryLevels are the levels of BenchmarkUpdateSweep.
var updateEveryLevels = []int{1, 2, 5, 10}

// updateSweep is one level of the update-parameter sweep.
func updateSweep(sys *molecule.System, every int) eval {
	return func() ([]metric, error) {
		wall, err := wallOf(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts: md.Options{
				Cutoff: harness.EffectiveCutoff, UpdateEvery: every,
				Accounting: true, Minimize: true,
			},
			Servers: 4,
			Steps:   10,
		})
		return []metric{{"virtual-s", wall}}, err
	}
}

// BenchmarkUpdateSweep sweeps the update parameter (the
// communication-computation balance factor of the design).
func BenchmarkUpdateSweep(b *testing.B) {
	sys := benchSystem("medium")
	for _, every := range updateEveryLevels {
		b.Run(fmt.Sprintf("update=%d", every), func(b *testing.B) { benchEval(b, updateSweep(sys, every)) })
	}
}

// waterModel is the Section 2.1 ablation: single-unit waters versus
// three-site waters (workload and list-size reduction).
func waterModel(single *molecule.System) eval {
	three := single.ExpandWaters(1)
	run := func(sys *molecule.System) (float64, int, error) {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Cutoff: harness.EffectiveCutoff, Accounting: true, Minimize: true},
			Servers:  2,
			Steps:    3,
		})
		if err != nil {
			return 0, 0, err
		}
		return out.Wall, out.Result.Steps[0].ActivePairs, nil
	}
	return func() ([]metric, error) {
		ws, ps, err := run(single)
		if err != nil {
			return nil, err
		}
		wt, pt, err := run(three)
		if err != nil {
			return nil, err
		}
		return []metric{{"3site/single-time", wt / ws}, {"3site/single-pairs", float64(pt) / float64(ps)}}, nil
	}
}

// BenchmarkWaterModel is the Section 2.1 ablation: single-unit waters
// versus three-site waters (workload and list-size reduction).
func BenchmarkWaterModel(b *testing.B) { benchEval(b, waterModel(benchSystem("small"))) }

// decompositionComparison compares the replicated-data engine against the
// spatial and force decompositions at the same server count.
func decompositionComparison(sys *molecule.System) eval {
	const p, steps = 4, 4
	return func() ([]metric, error) {
		rdT, err := wallOf(harness.RunSpec{
			Platform: platform.T3E900(),
			Sys:      sys,
			Opts:     md.Options{Cutoff: harness.EffectiveCutoff, Minimize: true},
			Servers:  p,
			Steps:    steps,
		})
		if err != nil {
			return nil, err
		}
		ms := []metric{{"rd-virtual-s", rdT}, {"sd-virtual-s", 0}, {"fd-virtual-s", 0}}
		for i, f := range []func(pvm.Task, *molecule.System, decomp.Options, int, int) (*decomp.Result, error){decomp.RunSD, decomp.RunFD} {
			sim := pvm.NewSimVM(platform.T3E900(), nil)
			var res *decomp.Result
			var err error
			sim.SpawnRoot("coord", func(task pvm.Task) {
				res, err = f(task, sys, decomp.Options{Cutoff: harness.EffectiveCutoff}, p, steps)
			})
			if e := sim.Run(); e != nil {
				return nil, e
			}
			if err != nil {
				return nil, err
			}
			ms[1+i].value = res.StepSeconds()
		}
		return ms, nil
	}
}

// BenchmarkDecompositionComparison compares the replicated-data engine
// against the spatial and force decompositions at the same server count.
func BenchmarkDecompositionComparison(b *testing.B) {
	benchEval(b, decompositionComparison(benchSystem("medium")))
}

// evenOddLevels are the server counts of BenchmarkEvenOddServers.
var evenOddLevels = []int{2, 3, 4, 5}

// evenOddServers is the load imbalance at p servers.
func evenOddServers(sys *molecule.System, p int) eval {
	return func() ([]metric, error) {
		imb, err := imbalanceOf(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Accounting: true, Minimize: true},
			Servers:  p,
			Steps:    3,
		})
		return []metric{{"imbalance-%", 100 * imb}}, err
	}
}

// BenchmarkEvenOddServers quantifies the anomaly across server counts.
func BenchmarkEvenOddServers(b *testing.B) {
	sys := benchSystem("medium")
	for _, p := range evenOddLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) { benchEval(b, evenOddServers(sys, p)) })
	}
}

// cellListAblation quantifies the future-work optimization: the
// spatial-cell update versus the O(n^2) scan of the original Opal, on the
// update-dominated cut-off configuration.
func cellListAblation(sys *molecule.System) eval {
	spec := func(cells bool) harness.RunSpec {
		return harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts: md.Options{
				Cutoff: 6, UpdateEvery: 1, // ~7 cells across the bench box
				Accounting: true, Minimize: true, CellList: cells,
			},
			Servers: 4,
			Steps:   5,
		}
	}
	return func() ([]metric, error) {
		plain, err := wallOf(spec(false))
		if err != nil {
			return nil, err
		}
		cells, err := wallOf(spec(true))
		if err != nil {
			return nil, err
		}
		return []metric{{"n2-update-s", plain}, {"cell-update-s", cells}, {"speedup", plain / cells}}, nil
	}
}

// BenchmarkCellListAblation quantifies the future-work optimization: the
// spatial-cell update versus the O(n^2) scan of the original Opal, on the
// update-dominated cut-off configuration.
func BenchmarkCellListAblation(b *testing.B) { benchEval(b, cellListAblation(benchSystem("large"))) }

// clusterOfJ90s is the extension the paper's site planned: Opal spanning
// four HIPPI-connected J90s, versus one shared-memory node.
func clusterOfJ90s(sys *molecule.System) eval {
	cl := platform.J90Cluster(8)
	opts := md.Options{Accounting: true, Minimize: true}
	return func() ([]metric, error) {
		single, err := wallOf(harness.RunSpec{Platform: platform.J90(), Sys: sys, Opts: opts, Servers: 7, Steps: 3})
		if err != nil {
			return nil, err
		}
		cluster, err := wallOf(harness.RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 15, Steps: 3})
		if err != nil {
			return nil, err
		}
		return []metric{{"single-p7-s", single}, {"cluster-p15-s", cluster}}, nil
	}
}

// BenchmarkClusterOfJ90s is the extension the paper's site planned:
// Opal spanning four HIPPI-connected J90s, versus one shared-memory node.
func BenchmarkClusterOfJ90s(b *testing.B) { benchEval(b, clusterOfJ90s(benchSystem("large"))) }

// predictionValidation quantifies how closely the analytic model tracks
// the instrumented simulation per platform (the one-rate extraction bias
// of Section 4.1).
func predictionValidation(sys *molecule.System) eval {
	return func() ([]metric, error) {
		cases, err := harness.ValidatePrediction(
			[]*platform.Platform{platform.FastCoPs(), platform.T3E900()},
			sys, harness.NoCutoff, 1, 3, []int{4})
		if err != nil {
			return nil, err
		}
		sum := harness.ValidationSummary(cases)
		return []metric{
			{"fastCoPs-err-%", 100 * sum[platform.FastCoPs().Name]},
			{"t3e-err-%", 100 * sum[platform.T3E900().Name]},
		}, nil
	}
}

// BenchmarkPredictionValidation quantifies how closely the analytic model
// tracks the instrumented simulation per platform (the one-rate
// extraction bias of Section 4.1).
func BenchmarkPredictionValidation(b *testing.B) {
	benchEval(b, predictionValidation(benchSystem("medium")))
}

// BenchmarkPairEnergy measures the raw Go speed of the non-bonded inner
// loop (host performance, not virtual time).
func BenchmarkPairEnergy(b *testing.B) {
	pos := []float64{0, 0, 0, 2.5, 0.4, 0.8}
	grad := make([]float64, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forcefield.PairEnergy(pos, 0, 1, 4096, 64, 0.7, grad)
	}
}

// BenchmarkEvalListRow measures the batched row kernel over a realistic
// pair list (the md.evalList hot path), with BenchmarkEvalListPerPair as
// the historical per-pair baseline it replaced.
func benchEvalListSetup() (sys *molecule.System, l *pairlist.List, lj *forcefield.LJTable, grad []float64) {
	sys = benchSystem("medium")
	owners := pairlist.Owners(sys.N, 1, pairlist.LCG, 1)
	l = pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))
	l.Update(sys.Pos, 10, nil)
	lj = forcefield.BuildLJ(forcefield.DefaultLJ())
	grad = make([]float64, 3*sys.N)
	return sys, l, lj, grad
}

func BenchmarkEvalListRow(b *testing.B) {
	sys, l, lj, grad := benchEvalListSetup()
	b.ReportAllocs()
	b.ResetTimer()
	var evdw, ecoul float64
	for i := 0; i < b.N; i++ {
		evdw, ecoul = 0, 0
		for r, at := range l.Rows {
			row := l.Pairs[r]
			if len(row) == 0 {
				continue
			}
			c12Row, c6Row := lj.Row(sys.Type[at])
			evdw, ecoul, _, _ = forcefield.PairEnergyRow(
				sys.Pos, at, row, sys.Type, c12Row, c6Row,
				sys.Charge[at], sys.Charge, grad, evdw, ecoul)
		}
	}
	b.ReportMetric(float64(l.NActive), "pairs")
}

func BenchmarkEvalListPerPair(b *testing.B) {
	sys, l, lj, grad := benchEvalListSetup()
	b.ReportAllocs()
	b.ResetTimer()
	var evdw, ecoul float64
	for i := 0; i < b.N; i++ {
		evdw, ecoul = 0, 0
		for r, at := range l.Rows {
			qi := sys.Charge[at]
			ti := sys.Type[at]
			for _, j32 := range l.Pairs[r] {
				j := int(j32)
				c12, c6 := lj.Coeffs(ti, sys.Type[j])
				qq := forcefield.CoulombK * qi * sys.Charge[j]
				ev, ec := forcefield.PairEnergy(sys.Pos, at, j, c12, c6, qq, grad)
				evdw += ev
				ecoul += ec
			}
		}
	}
	b.ReportMetric(float64(l.NActive), "pairs")
}

// BenchmarkListUpdate measures the host cost of one full list rebuild.
func BenchmarkListUpdate(b *testing.B) {
	sys := benchSystem("medium")
	owners := pairlist.Owners(sys.N, 1, pairlist.LCG, 1)
	l := pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(sys.Pos, 10, nil)
	}
}

// BenchmarkSimKernelMessaging measures the discrete-event kernel's
// message throughput (host performance) in the steady-state request/reply
// shape of the Sciddle phase protocol: both peers keep one buffer and
// Reset it per exchange, so the per-roundtrip path — pack, send, receive,
// unpack — runs without heap allocation.
func BenchmarkSimKernelMessaging(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := pvm.NewSimVM(platform.FastCoPs(), nil)
		sim.SpawnRoot("a", func(t pvm.Task) {
			tids := t.Spawn("b", 1, func(s pvm.Task) {
				rep := pvm.NewBuffer()
				for k := 0; k < 100; k++ {
					buf, src, tag := s.Recv(pvm.AnySrc, pvm.AnyTag)
					s.Send(src, tag, rep.Reset().PackInt(buf.MustInt()))
				}
			})
			req := pvm.NewBuffer()
			for k := 0; k < 100; k++ {
				t.Send(tids[0], 1, req.Reset().PackInt(k))
				buf, _, _ := t.Recv(tids[0], 1)
				if got := buf.MustInt(); got != k {
					panic("bad echo")
				}
			}
		})
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// scenarioThroughput is the scenario mix the level-of-detail layer
// targets, one eval per row, each one simulated run: a fault-free
// multi-step run fine-grained (lod=off) and at the default (lod=auto,
// macro replay), plus a chaos run (active fault plane) that the static
// eligibility gate must keep fine-grained without costing anything.  The
// scenario is deliberately communication-dominated — a tiny complex, a
// wide fleet and per-step pair-list refresh — because that is where the
// event-level DES overhead lives; runs are lean (no trace recorder),
// matching a parameter-sweep campaign.
func scenarioThroughput() []namedEval {
	sys := molecule.TestComplex(2, 4, 9)
	const servers, steps = 8, 400
	row := func(lod md.LoDMode, faults *fault.Config) eval {
		opts := md.Options{
			Cutoff:          10,
			UpdateEvery:     1,
			Accounting:      true,
			InitTemperature: 300,
			Seed:            7,
			LoD:             lod,
		}
		return func() ([]metric, error) {
			s := pvm.NewSimVM(platform.J90(), nil)
			if faults != nil {
				s.SetFaults(fault.NewPlan(*faults))
			}
			var err error
			s.SpawnRoot("opal-client", func(task pvm.Task) {
				_, err = md.RunParallel(task, sys, opts, servers, steps)
			})
			if e := s.Run(); e != nil {
				return nil, e
			}
			return nil, err
		}
	}
	return []namedEval{
		{"mix=faultfree/lod=off", row(md.LoDOff, nil)},
		{"mix=faultfree/lod=auto", row(md.LoDAuto, nil)},
		{"mix=chaos/lod=auto", row(md.LoDAuto, &fault.Config{Seed: 11, DelayRate: 0.02, StragglerRate: 0.01})},
	}
}

// BenchmarkScenarioThroughput measures end-to-end simulation throughput
// in sims/sec over the scenarioThroughput mix.
func BenchmarkScenarioThroughput(b *testing.B) {
	for _, sc := range scenarioThroughput() {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			benchEval(b, sc.eval)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}

// benchModel is the model case BenchmarkModelEvaluation evaluates: the
// medium complex at p=7 on the J90.
func benchModel() (core.Machine, core.App) {
	return core.MachineFor(platform.J90(), 0.633), core.AppFor(molecule.Antennapedia(), 10, 1, 7, 10)
}

// BenchmarkModelEvaluation measures the analytic model itself.
func BenchmarkModelEvaluation(b *testing.B) {
	mach, app := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = mach.Total(app)
	}
	b.ReportMetric(total, "predicted-s")
}

// BenchmarkFullFactorialEnumeration measures the design generator.
func BenchmarkFullFactorialEnumeration(b *testing.B) {
	factors := []expdesign.Factor{
		{Name: "servers", Levels: []string{"1", "2", "3", "4", "5", "6", "7"}},
		{Name: "size", Levels: []string{"s", "m", "l"}},
		{Name: "cutoff", Levels: []string{"no", "10A"}},
		{Name: "update", Levels: []string{"full", "partial"}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(expdesign.FullFactorial(factors)) != 84 {
			b.Fatal("wrong design size")
		}
	}
}

// BenchmarkBreakdownAggregation measures the trace aggregation path.
func BenchmarkBreakdownAggregation(b *testing.B) {
	rec := trace.NewRecorder()
	for p := 0; p < 8; p++ {
		for s := 0; s < 500; s++ {
			t0 := float64(s) * 0.01
			rec.Segment(p, "x", 0, t0, t0+0.004)
			rec.Segment(p, "x", 1, t0+0.004, t0+0.006)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.ComputeBreakdown(rec, 0, []int{1, 2, 3, 4, 5, 6, 7}, 5)
	}
}
