package harness

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/oracle"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

// chunkBreakdown is the reduction the kernel's window replaces: the
// run's kept trace reduced from its chunks over the run's window.
func chunkBreakdown(rec *trace.Recorder, res *md.Result) trace.Breakdown {
	return trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, res.StepSeconds)
}

// assertWindowBreakdown runs spec twice — untraced, and into a caller's
// keeping recorder — and requires both breakdowns, which the kernel
// summed, to equal the chunk reduction of the kept trace bit for bit.  The
// untraced run attaches no tracer and hands back an empty recorder.
func assertWindowBreakdown(t *testing.T, label string, spec RunSpec) {
	t.Helper()
	if tracerOf(spec) != nil {
		t.Fatalf("%s: an untraced run attaches a tracer", label)
	}
	lean, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if lean.Recorder == nil || lean.Recorder.Len() != 0 {
		t.Fatalf("%s: the untraced run's recorder %v, want an empty one", label, lean.Recorder)
	}
	spec.Recorder = trace.NewRecorder()
	full, err := Run(spec)
	if err != nil {
		t.Fatalf("%s (keeping): %v", label, err)
	}
	if want := chunkBreakdown(full.Recorder, full.Result); lean.Breakdown != want || full.Breakdown != want {
		t.Fatalf("%s: breakdowns differ:\nuntraced %+v\nkeeping  %+v\nchunks   %+v",
			label, lean.Breakdown, full.Breakdown, want)
	}
}

// TestWindowBreakdownMatchesChunkReduction holds harness.Run's breakdown,
// summed by the kernel as the run books segments, to the chunk reduction
// of the same run's trace: over the 40-seed level-of-detail sweep
// (macro-replayed and fine-grained), the serial engine, seeded fault
// planes, kill schedules that heal or, past the respawn budget, degrade,
// runs traced for an oracle or a comm matrix, and ClusterRun's two-tier
// fabric.
func TestWindowBreakdownMatchesChunkReduction(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		sys := molecule.TestComplex(8+seed%5, 16+2*(seed%7), int64(seed+1))
		opts := md.Options{
			Cutoff:      10,
			UpdateEvery: 1 + seed%3,
			Seed:        int64(seed),
			Accounting:  seed%2 == 0,
			Minimize:    seed%3 == 0,
		}
		if seed%4 == 0 {
			opts.Cutoff = 0
		}
		if !opts.Minimize {
			opts.InitTemperature = 300
		}
		for _, lod := range []md.LoDMode{md.LoDOff, md.LoDAuto} {
			opts.LoD = lod
			spec := RunSpec{Platform: platform.J90(), Sys: sys, Opts: opts, Servers: 1 + seed%3, Steps: 3 + seed%2}
			assertWindowBreakdown(t, "lod sweep", spec)
			if seed%8 == 0 {
				spec.Servers = 0
				assertWindowBreakdown(t, "serial", spec)
			}
		}
	}
	sys := Sizes(0.02)["small"]
	for seed := uint64(0); seed < 10; seed++ {
		cfg := fault.Uniform(seed, 0.05)
		assertWindowBreakdown(t, "faults", chaosSpec(sys, &cfg))
	}
	for seed := 0; seed < 10; seed++ {
		kills := fault.KillSchedule{1: {seed % 3}, 3: {(seed + 1) % 3}}
		spec := RunSpec{
			Platform: platform.J90(), Sys: molecule.TestComplex(8+seed%4, 16+2*(seed%5), int64(seed+100)),
			Opts: md.Options{Cutoff: 10, UpdateEvery: 2, Seed: int64(seed), Minimize: true,
				SelfHeal: true, Kills: kills.Func()},
			Servers: 3, Steps: 6,
		}
		if seed%2 == 1 {
			spec.Opts.MaxRespawns = 1 // the second death degrades the fleet
		}
		assertWindowBreakdown(t, "kills", spec)
	}
	for seed := 0; seed < 6; seed++ {
		spec := RunSpec{
			Platform: platform.J90(), Sys: molecule.TestComplex(8+seed%4, 16+2*(seed%5), int64(seed+200)),
			Opts:    md.Options{Cutoff: 10, UpdateEvery: 2, Seed: int64(seed), Accounting: true, Minimize: true, LoD: md.LoDMode(seed % 2)},
			Servers: 2 + seed%3, Steps: 6,
		}
		if seed < 3 {
			spec.Oracle = oracle.New(OracleConfig(spec, 2))
		} else {
			spec.Scope = &telemetry.Scope{ID: "window-matrix", Matrix: new(telemetry.Matrix)}
		}
		if tracerOf(spec) == nil {
			t.Fatalf("seed %d: an oracle or comm-matrix run attaches no tracer", seed)
		}
		out, err := Run(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := chunkBreakdown(out.Recorder, out.Result); out.Breakdown != want {
			t.Fatalf("seed %d: kernel breakdown %+v, chunk reduction %+v", seed, out.Breakdown, want)
		}
	}
	for seed := 0; seed < 6; seed++ {
		cl := platform.J90Cluster(2)
		sys := molecule.TestComplex(8+seed%4, 16+2*(seed%5), int64(seed+300))
		opts := md.Options{Cutoff: 10, UpdateEvery: 1 + seed%2, Seed: int64(seed), Accounting: seed%2 == 0, Minimize: true, LoD: md.LoDMode(seed % 2)}
		servers, steps := 3+seed%3, 4
		out, err := ClusterRun(cl, sys, opts, servers, steps)
		if err != nil {
			t.Fatalf("cluster seed %d: %v", seed, err)
		}
		rec := trace.NewRecorder()
		sim := pvm.NewSimVMComm(cl.Base, cl.Comm, rec)
		var res *md.Result
		sim.SpawnRoot("opal-client", func(t pvm.Task) {
			res, err = md.RunParallel(t, sys, opts, servers, steps)
		})
		if e := sim.Run(); e != nil || err != nil {
			t.Fatalf("cluster seed %d (keeping): %v %v", seed, e, err)
		}
		if want := chunkBreakdown(rec, res); out.Breakdown != want {
			t.Fatalf("cluster seed %d: kernel breakdown %+v, chunk reduction %+v", seed, out.Breakdown, want)
		}
	}
}
