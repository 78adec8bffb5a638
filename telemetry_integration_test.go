package opalperf

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"opalperf/internal/core"
	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/oracle"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
)

// supervisedSpec is a self-healing run with an administrative kill and
// periodic checkpoints — the acceptance scenario of the telemetry plane.
func supervisedSpec(ckptSink func(*md.Checkpoint) error) harness.RunSpec {
	return harness.RunSpec{
		Platform: platform.J90(),
		Sys:      paper.BenchScale().Sizes["small"],
		Opts: md.Options{
			Cutoff:          harness.EffectiveCutoff,
			UpdateEvery:     2,
			Minimize:        true,
			SelfHeal:        true,
			FaultTolerant:   true,
			Kills:           fault.KillSchedule{3: {1}}.Func(),
			CheckpointEvery: 4,
			CheckpointSink:  ckptSink,
		},
		Servers: 3,
		Steps:   8,
	}
}

// TestTelemetryPhysicsBitIdentical pins the plane's core invariant:
// telemetry observes a run, it never feeds back into it.  The same
// supervised kill-schedule run with the journal, metrics, flight recorder,
// the model oracle AND the comm-matrix instrument armed must produce
// bit-identical energies to the bare run — the observers read the trace
// recorder and the counters but touch neither physics nor virtual time.
func TestTelemetryPhysicsBitIdentical(t *testing.T) {
	run := func(withTelemetry bool) *md.Result {
		spec := supervisedSpec(func(cp *md.Checkpoint) error { return nil })
		if withTelemetry {
			telemetry.SetEnabled(true)
			telemetry.StartJournal(io.Discard, 64)
			defer telemetry.StopJournal()
			defer telemetry.SetEnabled(false)
			spec.Scope = &telemetry.Scope{Matrix: new(telemetry.Matrix), MatrixEvery: 2}
			spec.Oracle = oracle.New(oracle.Config{
				Machine:          core.MachineFor(platform.J90(), spec.Sys.Gamma()),
				Sys:              spec.Sys,
				Cutoff:           harness.EffectiveCutoff,
				UpdateEvery:      2,
				Servers:          spec.Servers,
				Window:           2,
				RecalibrateEvery: 2,
			})
		}
		out, err := harness.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out.Result
	}
	bare := run(false)
	observed := run(true)
	if len(bare.Steps) != len(observed.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(bare.Steps), len(observed.Steps))
	}
	for i := range bare.Steps {
		if bare.Steps[i].ETotal != observed.Steps[i].ETotal ||
			bare.Steps[i].EVdw != observed.Steps[i].EVdw ||
			bare.Steps[i].ECoul != observed.Steps[i].ECoul {
			t.Fatalf("step %d energies differ with telemetry on: %+v vs %+v",
				i, bare.Steps[i], observed.Steps[i])
		}
	}
	for i := range bare.FinalPos {
		if bare.FinalPos[i] != observed.FinalPos[i] {
			t.Fatalf("final position %d differs with telemetry on", i)
		}
	}
}

// TestTelemetryJournalOfSupervisedRun drives the acceptance scenario: a
// -supervise run with a kill schedule and periodic checkpoints produces a
// JSONL journal containing the fault, respawn and checkpoint lifecycle
// events, all valid JSON and stamped with the run ID.
func TestTelemetryJournalOfSupervisedRun(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	telemetry.SetRun("test-run")
	var buf bytes.Buffer
	telemetry.StartJournal(&buf, 64)
	defer telemetry.StopJournal()

	if _, err := harness.Run(supervisedSpec(func(cp *md.Checkpoint) error { return nil })); err != nil {
		t.Fatal(err)
	}

	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var ev struct {
			Run  string `json:"run"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line is not valid JSON: %v\n%s", err, line)
		}
		if ev.Run != "test-run" {
			t.Fatalf("event missing run id: %s", line)
		}
		types[ev.Type]++
	}
	for _, want := range []string{
		"run_start", "fault_injected", "supervisor_healing", "respawn",
		"supervisor_healthy", "checkpoint", "run_end",
	} {
		if types[want] == 0 {
			t.Fatalf("journal has no %q event; got %v\n%s", want, types, buf.String())
		}
	}
	if types["checkpoint"] != 2 { // steps 4 and 8 at CheckpointEvery=4
		t.Fatalf("checkpoint events = %d, want 2 (%v)", types["checkpoint"], types)
	}
	// The flight recorder mirrors the journal, line for line.
	lines := strings.Count(buf.String(), "\n")
	if n := telemetry.Current().Flight().Len(); n != lines {
		t.Fatalf("flight recorder holds %d events, journal wrote %d lines", n, lines)
	}
}

// TestTelemetryMetricsOfSupervisedRun checks the counters the supervised
// run must move: faults injected, deaths, respawns, steps and checkpoints
// all appear in the Prometheus exposition.
func TestTelemetryMetricsOfSupervisedRun(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	telemetry.StartJournal(nil, 64)
	defer telemetry.StopJournal()

	before := telemetry.SupRespawns.Value()
	faultsBefore := telemetry.FaultsInjected.With("admin_kill").Value()
	stepsBefore := telemetry.MDSteps.Value()
	ckptBefore := telemetry.MDCheckpoints.Value()
	updBefore, rebBefore := telemetry.PairlistUpdates.Value(), telemetry.PairlistRebuilds.Value()
	if _, err := harness.Run(supervisedSpec(func(cp *md.Checkpoint) error { return nil })); err != nil {
		t.Fatal(err)
	}
	// Four update phases over three lists plus the respawned server's
	// replay; every list (the replacement's too) builds its candidates
	// once and no minimizer step moves a centre far enough to rebuild.
	upd, reb := telemetry.PairlistUpdates.Value()-updBefore, telemetry.PairlistRebuilds.Value()-rebBefore
	if upd != 13 || reb != 4 {
		t.Errorf("pair-list updates counted = %d with %d candidate rebuilds, want 13 with 4", upd, reb)
	}
	if got := telemetry.SupRespawns.Value() - before; got != 1 {
		t.Errorf("respawns counted = %d, want 1", got)
	}
	if got := telemetry.FaultsInjected.With("admin_kill").Value() - faultsBefore; got != 1 {
		t.Errorf("admin kills counted = %d, want 1", got)
	}
	if got := telemetry.MDSteps.Value() - stepsBefore; got != 8 {
		t.Errorf("steps counted = %d, want 8", got)
	}
	if got := telemetry.MDCheckpoints.Value() - ckptBefore; got != 2 {
		t.Errorf("checkpoints counted = %d, want 2", got)
	}

	var expo bytes.Buffer
	telemetry.Default.WritePrometheus(&expo)
	for _, want := range []string{
		"opal_supervisor_respawns_total",
		`opal_faults_injected_total{kind="admin_kill"}`,
		"opal_sciddle_call_seconds_bucket",
		"opal_md_step_seconds_count",
		"opal_pairlist_rebuilds_total",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
