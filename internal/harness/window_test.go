package harness

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/trace"
)

// chunkBreakdown is the reduction the window table replaced: the retained
// trace of a run replayed into a recorder that never opens a window, then
// reduced from its chunks over the run's window.
func chunkBreakdown(out RunOutcome) trace.Breakdown {
	ref := trace.NewRecorder()
	for _, s := range out.Recorder.Segments() {
		ref.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
	}
	res := out.Result
	return trace.ComputeBreakdownBetween(ref, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, out.Wall)
}

// assertWindowBreakdown runs spec twice — into the window recorder Run
// picks, and into a caller's keeping recorder — and requires both
// breakdowns, and the chunk reduction of the kept trace, to agree bit for
// bit.
func assertWindowBreakdown(t *testing.T, label string, spec RunSpec) {
	t.Helper()
	lean, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if n := len(lean.Recorder.Segments()); n != 0 {
		t.Fatalf("%s: the window-only run kept %d segments", label, n)
	}
	spec.Recorder = trace.NewRecorder()
	full, err := Run(spec)
	if err != nil {
		t.Fatalf("%s (keeping): %v", label, err)
	}
	if lean.Recorder.Len() != full.Recorder.Len() || full.Recorder.Len() != len(full.Recorder.Segments()) {
		t.Fatalf("%s: Len() %d window-only, %d keeping, %d kept", label,
			lean.Recorder.Len(), full.Recorder.Len(), len(full.Recorder.Segments()))
	}
	if want := chunkBreakdown(full); lean.Breakdown != want || full.Breakdown != want {
		t.Fatalf("%s: breakdowns differ:\nwindow-only %+v\nkeeping     %+v\nchunks      %+v",
			label, lean.Breakdown, full.Breakdown, want)
	}
}

// TestWindowBreakdownMatchesChunkReduction holds harness.Run's breakdown,
// summed as the run records, to the chunk reduction of the same run's
// trace: over the 40-seed level-of-detail sweep (macro-replayed and
// fine-grained), the serial engine, seeded fault planes, and kill
// schedules that heal or, past the respawn budget, degrade.
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
}
