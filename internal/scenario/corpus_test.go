package scenario

// The checked-in chaos corpus, exercised from Go: the hand-rolled chaos
// and kill-sweep tests ported onto scenario files, with the same
// assertions they made before — bit-identical physics against the
// fault-free reference, monotone wall clock, respawns equal to the kill
// schedule's total.  The corpus lives in /scenarios; these tests are the
// tier-1 gate that keeps it honest between CI corpus runs.

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"opalperf/internal/harness"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

const corpusDir = "../../scenarios"

func loadCorpus(t *testing.T, name string) *Spec {
	t.Helper()
	spec, err := Load(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCorpusLoads keeps every checked-in scenario parseable and
// structurally valid — `scenario validate scenarios/` as a tier-1 test.
func TestCorpusLoads(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 25 {
		t.Fatalf("corpus has %d scenarios, want >= 25", len(specs))
	}
	for _, s := range specs {
		if len(s.AssertNames()) == 0 {
			t.Errorf("%s asserts nothing", s.File)
		}
		if s.Description == "" {
			t.Errorf("%s has no description", s.File)
		}
	}
}

// TestChaosCorpusSweep is the ported chaos sweep (harness
// TestChaosSweep) through the corpus: the chaos-uniform scenario swept
// over distinct fault schedules.  Identical assertions — every faulted
// run's physics bit-identical to the fault-free baseline, wall clock
// never below it — plus the sweep must actually inject something.
func TestChaosCorpusSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	spec := loadCorpus(t, "chaos-uniform.yaml")
	if !spec.Assert.EnergiesBitIdentical || !spec.Assert.WallNotBelowReference {
		t.Fatalf("chaos-uniform must assert bit-identity and wall monotonicity: %v", spec.AssertNames())
	}
	injected := 0
	for _, rep := range Sweep(spec, seeds, 0) {
		if rep.Err != nil {
			t.Fatalf("sweep %d: %v", rep.Sweep, rep.Err)
		}
		for _, c := range rep.Failures() {
			t.Fatalf("sweep %d: %s: %s", rep.Sweep, c.Name, c.Detail)
		}
		injected += rep.Injected
	}
	if injected == 0 {
		t.Fatal("no sweep injected a fault; the corpus chaos rate is too low to test anything")
	}
}

// TestSelfHealKillSweepCorpus is the ported kill sweep (harness
// TestSelfHealKillSweepSim) through the corpus: seeded kill schedules,
// every death healed, physics bit-identical and Respawns equal to each
// schedule's kill count — asserted by the scenario's
// respawns_equal_kills check.
func TestSelfHealKillSweepCorpus(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	spec := loadCorpus(t, "kill-sweep.yaml")
	if !spec.Assert.RespawnsEqualKills || !spec.Assert.EnergiesBitIdentical {
		t.Fatalf("kill-sweep must assert respawns_equal_kills and bit-identity: %v", spec.AssertNames())
	}
	killed := 0
	for _, rep := range Sweep(spec, seeds, 0) {
		if rep.Err != nil {
			t.Fatalf("sweep %d: %v", rep.Sweep, rep.Err)
		}
		for _, c := range rep.Failures() {
			t.Fatalf("sweep %d: %s: %s", rep.Sweep, c.Name, c.Detail)
		}
		killed += rep.Respawns
	}
	if killed == 0 {
		t.Fatal("no schedule killed anything; the sweep is not exercising respawns")
	}
}

// TestRestartOfSelfHealingRunCorpus is the ported three-rung recovery
// ladder (harness TestRestartOfSelfHealingRun) through the corpus:
// servers die under a seeded schedule and are healed, the client is
// killed and restarted from a periodic checkpoint, and the stitched
// trajectory matches the undisturbed run bit for bit.
func TestRestartOfSelfHealingRunCorpus(t *testing.T) {
	spec := loadCorpus(t, "restart-of-healing-run.yaml")
	rep := RunScenario(spec, 0, nil)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for _, c := range rep.Failures() {
		t.Errorf("%s: %s", c.Name, c.Detail)
	}
	if rep.Respawns == 0 {
		t.Fatal("no respawns despite a non-empty kill schedule")
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoint captured before the restart")
	}
	if rep.ResumedAt == 0 {
		t.Fatal("restart replayed from scratch; the periodic checkpoint was not used")
	}
}

// TestCorpusWindowBreakdownMatchesChunkReduction runs every corpus
// scenario's whole run (a restart event aside) twice — into the window
// recorder harness.Run picks, and into a keeping recorder — and holds both
// breakdowns to the chunk reduction of the kept trace, bit for bit.  The
// corpus brings the shapes the seed sweeps do not: fault windows opened
// and closed from step hooks, heals mid-interval and at the fleet's edge,
// respawn budgets that run out into degradation, checkpoints.
func TestCorpusWindowBreakdownMatchesChunkReduction(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		p, err := s.compile(0)
		if err != nil {
			t.Fatal(err)
		}
		leg := p.legSpec(p.base.Opts, 0, s.Fleet.Steps, nil)
		lean, err := harness.Run(leg)
		if err != nil {
			t.Fatalf("%s: %v", s.File, err)
		}
		leg.Recorder = trace.NewRecorder()
		full, err := harness.Run(leg)
		if err != nil {
			t.Fatalf("%s (keeping): %v", s.File, err)
		}
		ref := trace.NewRecorder()
		for _, seg := range full.Recorder.Segments() {
			ref.Segment(seg.Proc, seg.Name, seg.Kind, seg.Start, seg.End)
		}
		res := full.Result
		chunks := trace.ComputeBreakdownBetween(ref, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, full.Wall)
		if lean.Breakdown != chunks || full.Breakdown != chunks {
			t.Errorf("%s: breakdowns differ:\nwindow-only %+v\nkeeping     %+v\nchunks      %+v",
				s.File, lean.Breakdown, full.Breakdown, chunks)
		}
	}
}

// TestScenarioJournalByteIdentical extends the telemetry plane's
// bit-identity invariant (TestTelemetryPhysicsBitIdentical) to the
// journal itself: the same scenario seed run twice under a pinned clock
// and run ID renders byte-identical JSONL — every field of every
// lifecycle event, including virtual times and fault attributions, is
// deterministic.
func TestScenarioJournalByteIdentical(t *testing.T) {
	spec := loadCorpus(t, "kill-sweep.yaml")
	record := func() []byte {
		telemetry.SetEnabled(true)
		defer telemetry.SetEnabled(false)
		var buf bytes.Buffer
		j := telemetry.StartJournal(&buf, 64)
		defer telemetry.StopJournal()
		telemetry.SetRun("scenario-byte-identity")
		base := time.Unix(0, 0).UTC()
		j.SetClock(func() time.Time {
			base = base.Add(time.Millisecond)
			return base
		})
		if rep := RunScenario(spec, 0, nil); rep.Err != nil {
			t.Fatal(rep.Err)
		}
		// Drop the journal_start preamble: StartJournal stamps it before
		// the clock is pinned.  Everything after is the scenario's.
		out := buf.Bytes()
		if i := bytes.IndexByte(out, '\n'); i >= 0 {
			out = out[i+1:]
		}
		return append([]byte(nil), out...)
	}
	first := record()
	second := record()
	if len(first) == 0 {
		t.Fatal("journal is empty; the scenario emitted no lifecycle events")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("journals differ between identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}
