package opalperf

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches for the design choices called out in DESIGN.md.  The
// measured-figure benches run at a reduced problem scale so the whole
// suite finishes quickly; every shape they report is scale-stable, and
// cmd/figures -scale 1 regenerates the paper-scale outputs.

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

func benchBreakdownFigure(b *testing.B, sys *molecule.System) {
	b.Helper()
	var wall float64
	for i := 0; i < b.N; i++ {
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
			b.Fatal(err)
		}
		wall = out.Wall
	}
	b.ReportMetric(wall, "virtual-s")
}

// BenchmarkFig1Breakdown regenerates one panel of Figure 1: the measured
// execution-time breakdown of the medium complex on the virtual J90.
func BenchmarkFig1Breakdown(b *testing.B) {
	benchBreakdownFigure(b, benchSystem("medium"))
}

// BenchmarkFig2Breakdown does the same for the large complex (Figure 2).
func BenchmarkFig2Breakdown(b *testing.B) {
	benchBreakdownFigure(b, benchSystem("large"))
}

// BenchmarkFig3Design enumerates the paper's experimental designs.
func BenchmarkFig3Design(b *testing.B) {
	suite := harness.NewSuite(map[string]*molecule.System{
		"small": benchSystem("small"), "medium": benchSystem("medium"), "large": benchSystem("large"),
	})
	var full, frac int
	for i := 0; i < b.N; i++ {
		full = len(suite.FullCases())
		cases, err := suite.FractionCases()
		if err != nil {
			b.Fatal(err)
		}
		frac = len(cases)
	}
	b.ReportMetric(float64(full), "full-cases")
	b.ReportMetric(float64(frac), "fraction-cases")
}

// BenchmarkFig4Calibration runs the reduced factorial design and fits the
// model, reporting the fit quality of Figure 4.
func BenchmarkFig4Calibration(b *testing.B) {
	suite := harness.NewSuite(map[string]*molecule.System{
		"small": benchSystem("small"), "medium": benchSystem("medium"), "large": benchSystem("large"),
	})
	suite.Steps = 5
	var mape, r2 float64
	for i := 0; i < b.N; i++ {
		rep, err := suite.Calibrate(nil)
		if err != nil {
			b.Fatal(err)
		}
		mape, r2 = rep.MAPE, rep.R2
	}
	b.ReportMetric(100*mape, "MAPE-%")
	b.ReportMetric(r2, "R2")
}

func benchPrediction(b *testing.B, sys *molecule.System) {
	b.Helper()
	var j90Speedup, t3eSpeedup float64
	for i := 0; i < b.N; i++ {
		series := harness.PredictFigure(platform.All(), sys, harness.EffectiveCutoff, 1, 10, 7)
		for _, s := range series {
			switch s.Platform {
			case platform.J90().Name:
				j90Speedup = s.Speedups[6]
			case platform.T3E900().Name:
				t3eSpeedup = s.Speedups[6]
			}
		}
	}
	b.ReportMetric(j90Speedup, "j90-speedup@7")
	b.ReportMetric(t3eSpeedup, "t3e-speedup@7")
}

// BenchmarkFig5Prediction evaluates the cross-platform prediction for the
// paper's medium complex (Figure 5) at full scale — the model is analytic.
func BenchmarkFig5Prediction(b *testing.B) {
	benchPrediction(b, molecule.Antennapedia())
}

// BenchmarkFig6Prediction does the same for the large complex (Figure 6).
func BenchmarkFig6Prediction(b *testing.B) {
	benchPrediction(b, molecule.LFB())
}

// BenchmarkTable1Kernel measures the isolated Opal kernel on every
// platform (Table 1).
func BenchmarkTable1Kernel(b *testing.B) {
	var j90Time float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(platform.All())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Platform == platform.J90().Name {
				j90Time = r.ExecSeconds
			}
		}
	}
	b.ReportMetric(j90Time, "j90-kernel-s")
}

// BenchmarkTable2PingPong measures the communication parameters (Table 2).
func BenchmarkTable2PingPong(b *testing.B) {
	var j90MBs float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(platform.All())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Platform == platform.J90().Name {
				j90MBs = r.ObservedMBs
			}
		}
	}
	b.ReportMetric(j90MBs, "j90-MB/s")
}

// BenchmarkMemHierarchy reproduces the Section 2.6 working-set sweep.
func BenchmarkMemHierarchy(b *testing.B) {
	var swapRate float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.MemoryHierarchy()
		if err != nil {
			b.Fatal(err)
		}
		swapRate = rows[2].RateMFlops
	}
	b.ReportMetric(swapRate, "out-of-core-MFlop/s")
}

// BenchmarkSpaceModel evaluates the Section 2.6 space-complexity table
// for the paper's large example.
func BenchmarkSpaceModel(b *testing.B) {
	sys := molecule.LFB()
	var pairListMB float64
	for i := 0; i < b.N; i++ {
		for _, e := range md.SpaceModel(sys, 0, 1) {
			if e.Name == "pair list" {
				pairListMB = float64(e.Bytes) / 1e6
			}
		}
	}
	b.ReportMetric(pairListMB, "pairlist-MB")
}

// BenchmarkAccountingOverhead is the Section 3.3 ablation: the cost of
// the barrier-separated timing mode (the paper accepts < 5%).
func BenchmarkAccountingOverhead(b *testing.B) {
	sys := benchSystem("medium")
	run := func(acct bool) float64 {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.FastCoPs(),
			Sys:      sys,
			Opts:     md.Options{Accounting: acct, Minimize: true},
			Servers:  4,
			Steps:    10,
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Wall
	}
	var overheadPct float64
	for i := 0; i < b.N; i++ {
		over := run(false)
		acct := run(true)
		overheadPct = 100 * (acct - over) / over
	}
	b.ReportMetric(overheadPct, "overhead-%")
}

// BenchmarkPairDistribution is the even-server-anomaly ablation: load
// imbalance of the pseudo-random (LCG) deal versus the balanced folded
// deal at an even server count.
func BenchmarkPairDistribution(b *testing.B) {
	sys := benchSystem("medium")
	run := func(strat pairlist.Strategy) float64 {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Accounting: true, Minimize: true, Strategy: strat},
			Servers:  4,
			Steps:    4,
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Breakdown.Imbalance()
	}
	var lcg, folded float64
	for i := 0; i < b.N; i++ {
		lcg = run(pairlist.LCG)
		folded = run(pairlist.Folded)
	}
	b.ReportMetric(100*lcg, "lcg-imbalance-%")
	b.ReportMetric(100*folded, "folded-imbalance-%")
}

// BenchmarkUpdateSweep sweeps the update parameter (the
// communication-computation balance factor of the design).
func BenchmarkUpdateSweep(b *testing.B) {
	sys := benchSystem("medium")
	for _, every := range []int{1, 2, 5, 10} {
		every := every
		b.Run(fmt.Sprintf("update=%d", every), func(b *testing.B) {
			var wall float64
			for i := 0; i < b.N; i++ {
				out, err := harness.Run(harness.RunSpec{
					Platform: platform.J90(),
					Sys:      sys,
					Opts: md.Options{
						Cutoff: harness.EffectiveCutoff, UpdateEvery: every,
						Accounting: true, Minimize: true,
					},
					Servers: 4,
					Steps:   10,
				})
				if err != nil {
					b.Fatal(err)
				}
				wall = out.Wall
			}
			b.ReportMetric(wall, "virtual-s")
		})
	}
}

// BenchmarkWaterModel is the Section 2.1 ablation: single-unit waters
// versus three-site waters (workload and list-size reduction).
func BenchmarkWaterModel(b *testing.B) {
	single := benchSystem("small")
	three := single.ExpandWaters(1)
	run := func(sys *molecule.System) (float64, int) {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Cutoff: harness.EffectiveCutoff, Accounting: true, Minimize: true},
			Servers:  2,
			Steps:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Wall, out.Result.Steps[0].ActivePairs
	}
	var ratio float64
	var pairsSingle, pairsThree int
	for i := 0; i < b.N; i++ {
		ws, ps := run(single)
		wt, pt := run(three)
		ratio = wt / ws
		pairsSingle, pairsThree = ps, pt
	}
	b.ReportMetric(ratio, "3site/single-time")
	b.ReportMetric(float64(pairsThree)/float64(pairsSingle), "3site/single-pairs")
}

// BenchmarkDecompositionComparison compares the replicated-data engine
// against the spatial and force decompositions at the same server count.
func BenchmarkDecompositionComparison(b *testing.B) {
	sys := benchSystem("medium")
	const p, steps = 4, 4
	var rdT, sdT, fdT float64
	for i := 0; i < b.N; i++ {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.T3E900(),
			Sys:      sys,
			Opts:     md.Options{Cutoff: harness.EffectiveCutoff, Minimize: true},
			Servers:  p,
			Steps:    steps,
		})
		if err != nil {
			b.Fatal(err)
		}
		rdT = out.Wall
		for _, m := range []struct {
			f   func(pvm.Task, *molecule.System, decomp.Options, int, int) (*decomp.Result, error)
			dst *float64
		}{{decomp.RunSD, &sdT}, {decomp.RunFD, &fdT}} {
			sim := pvm.NewSimVM(platform.T3E900(), nil)
			var res *decomp.Result
			var err error
			m := m
			sim.SpawnRoot("coord", func(task pvm.Task) {
				res, err = m.f(task, sys, decomp.Options{Cutoff: harness.EffectiveCutoff}, p, steps)
			})
			if e := sim.Run(); e != nil {
				b.Fatal(e)
			}
			if err != nil {
				b.Fatal(err)
			}
			*m.dst = res.StepSeconds()
		}
	}
	b.ReportMetric(rdT, "rd-virtual-s")
	b.ReportMetric(sdT, "sd-virtual-s")
	b.ReportMetric(fdT, "fd-virtual-s")
}

// BenchmarkEvenOddServers quantifies the anomaly across server counts.
func BenchmarkEvenOddServers(b *testing.B) {
	sys := benchSystem("medium")
	for _, p := range []int{2, 3, 4, 5} {
		p := p
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var imb float64
			for i := 0; i < b.N; i++ {
				out, err := harness.Run(harness.RunSpec{
					Platform: platform.J90(),
					Sys:      sys,
					Opts:     md.Options{Accounting: true, Minimize: true},
					Servers:  p,
					Steps:    3,
				})
				if err != nil {
					b.Fatal(err)
				}
				imb = out.Breakdown.Imbalance()
			}
			b.ReportMetric(100*imb, "imbalance-%")
		})
	}
}

// BenchmarkCellListAblation quantifies the future-work optimization: the
// spatial-cell update versus the O(n^2) scan of the original Opal, on the
// update-dominated cut-off configuration.
func BenchmarkCellListAblation(b *testing.B) {
	sys := benchSystem("large")
	run := func(cells bool) float64 {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts: md.Options{
				Cutoff: 6, UpdateEvery: 1, // ~7 cells across the bench box
				Accounting: true, Minimize: true, CellList: cells,
			},
			Servers: 4,
			Steps:   5,
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Wall
	}
	var plain, cells float64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		cells = run(true)
	}
	b.ReportMetric(plain, "n2-update-s")
	b.ReportMetric(cells, "cell-update-s")
	b.ReportMetric(plain/cells, "speedup")
}

// BenchmarkClusterOfJ90s is the extension the paper's site planned:
// Opal spanning four HIPPI-connected J90s, versus one shared-memory node.
func BenchmarkClusterOfJ90s(b *testing.B) {
	sys := benchSystem("large")
	spec := platform.J90Cluster(8)
	var single, cluster float64
	for i := 0; i < b.N; i++ {
		out, err := harness.Run(harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Accounting: true, Minimize: true},
			Servers:  7,
			Steps:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
		single = out.Wall
		cl, err := harness.ClusterRun(spec, sys,
			md.Options{Accounting: true, Minimize: true}, 15, 3)
		if err != nil {
			b.Fatal(err)
		}
		cluster = cl.Wall
	}
	b.ReportMetric(single, "single-p7-s")
	b.ReportMetric(cluster, "cluster-p15-s")
}

// BenchmarkPredictionValidation quantifies how closely the analytic model
// tracks the instrumented simulation per platform (the one-rate
// extraction bias of Section 4.1).
func BenchmarkPredictionValidation(b *testing.B) {
	sys := benchSystem("medium")
	var fastErr, t3eErr float64
	for i := 0; i < b.N; i++ {
		cases, err := harness.ValidatePrediction(
			[]*platform.Platform{platform.FastCoPs(), platform.T3E900()},
			sys, harness.NoCutoff, 1, 3, []int{4})
		if err != nil {
			b.Fatal(err)
		}
		sum := harness.ValidationSummary(cases)
		fastErr = sum[platform.FastCoPs().Name]
		t3eErr = sum[platform.T3E900().Name]
	}
	b.ReportMetric(100*fastErr, "fastCoPs-err-%")
	b.ReportMetric(100*t3eErr, "t3e-err-%")
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
func benchEvalListSetup(b *testing.B) (sys *molecule.System, l *pairlist.List, lj *forcefield.LJTable, grad []float64) {
	b.Helper()
	sys = benchSystem("medium")
	owners := pairlist.Owners(sys.N, 1, pairlist.LCG, 1)
	l = pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))
	l.Update(sys.Pos, 10, nil)
	lj = forcefield.BuildLJ(forcefield.DefaultLJ())
	grad = make([]float64, 3*sys.N)
	return sys, l, lj, grad
}

func BenchmarkEvalListRow(b *testing.B) {
	sys, l, lj, grad := benchEvalListSetup(b)
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
	sys, l, lj, grad := benchEvalListSetup(b)
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

// BenchmarkScenarioThroughput measures end-to-end simulation throughput
// in sims/sec over the scenario mix the level-of-detail layer targets: a
// fault-free multi-step run with and without macro replay, plus a chaos
// run (active fault plane) that the static eligibility gate must keep
// fine-grained without costing anything.  The
// scenario is deliberately communication-dominated — a tiny complex, a
// wide fleet and per-step pair-list refresh — because that is where the
// event-level DES overhead lives; runs are lean (no trace recorder),
// matching a parameter-sweep campaign.  The faultfree lod=off/lod=on
// pair (the fine-grained reference against the default, macro replay;
// the names are the keys of the BENCH_*.json snapshots) is the speedup
// the perf gate pins with perfdiff -min-ratio.
func BenchmarkScenarioThroughput(b *testing.B) {
	sys := molecule.TestComplex(2, 4, 9)
	opts := md.Options{
		Cutoff:          10,
		UpdateEvery:     1,
		Accounting:      true,
		InitTemperature: 300,
		Seed:            7,
	}
	const servers, steps = 8, 400
	scenarios := []struct {
		name   string
		lod    md.LoDMode
		faults *fault.Config
	}{
		{"mix=faultfree/lod=off", md.LoDOff, nil},
		{"mix=faultfree/lod=on", md.LoDAuto, nil},
		{"mix=chaos/lod=auto", md.LoDAuto, &fault.Config{Seed: 11, DelayRate: 0.02, StragglerRate: 0.01}},
	}
	for _, sc := range scenarios {
		sc := sc
		runOpts := opts
		runOpts.LoD = sc.lod
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := pvm.NewSimVM(platform.J90(), nil)
				if sc.faults != nil {
					s.SetFaults(fault.NewPlan(*sc.faults))
				}
				var err error
				s.SpawnRoot("opal-client", func(task pvm.Task) {
					_, err = md.RunParallel(task, sys, runOpts, servers, steps)
				})
				if e := s.Run(); e != nil {
					b.Fatal(e)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}

// BenchmarkModelEvaluation measures the analytic model itself.
func BenchmarkModelEvaluation(b *testing.B) {
	mach := core.MachineFor(platform.J90(), 0.633)
	app := core.AppFor(molecule.Antennapedia(), 10, 1, 7, 10)
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
