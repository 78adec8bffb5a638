package opalperf

// BenchmarkPaper times every entry of the paper's evaluation table
// (internal/paper) at paper.BenchScale, one sub-benchmark per entry, and
// reports the entry's metrics.  What a metric reports is virtual time or
// a quantity derived from it, so it is deterministic: TestFidelityGolden
// (fidelity_test.go) holds each to testdata/fidelity.golden bit for bit,
// and the benchmark only times the entry.  The other benchmarks here time
// the host: the pair kernel, the kernel's messaging and the scenario mix
// the level-of-detail layer targets.

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/forcefield"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
)

// BenchmarkPaper times each entry of the evaluation table.
func BenchmarkPaper(b *testing.B) {
	s := paper.BenchScale()
	for _, e := range paper.Evals {
		b.Run(e.Name, func(b *testing.B) {
			var out paper.Output
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = e.Run(s); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range out.Metrics {
				unit := m.Unit
				if m.Row != "" {
					unit = m.Row + "/" + unit
				}
				b.ReportMetric(m.Value, unit)
			}
		})
	}
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

// namedRun is one simulation under its row name.
type namedRun struct {
	name string
	run  func() error
}

// scenarioThroughput is the scenario mix the level-of-detail layer
// targets, one run per row, each one simulated run: a fault-free
// multi-step run fine-grained (lod=off) and at the default (lod=auto,
// macro replay), plus a chaos run (active fault plane) that the static
// eligibility gate must keep fine-grained without costing anything.  The
// scenario is deliberately communication-dominated — a tiny complex, a
// wide fleet and per-step pair-list refresh — because that is where the
// event-level DES overhead lives; runs are lean (no trace recorder),
// matching a parameter-sweep campaign.
func scenarioThroughput() []namedRun {
	sys := molecule.TestComplex(2, 4, 9)
	const servers, steps = 8, 400
	row := func(lod md.LoDMode, faults *fault.Config) func() error {
		opts := md.Options{
			Cutoff:          10,
			UpdateEvery:     1,
			Accounting:      true,
			InitTemperature: 300,
			Seed:            7,
			LoD:             lod,
		}
		return func() error {
			s := pvm.NewSimVM(platform.J90(), nil)
			if faults != nil {
				s.SetFaults(fault.NewPlan(*faults))
			}
			var err error
			s.SpawnRoot("opal-client", func(task pvm.Task) {
				_, err = md.RunParallel(task, sys, opts, servers, steps)
			})
			if e := s.Run(); e != nil {
				return e
			}
			return err
		}
	}
	return []namedRun{
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
			for i := 0; i < b.N; i++ {
				if err := sc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}
