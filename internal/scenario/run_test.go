package scenario

import (
	"bytes"
	"strings"
	"testing"

	"opalperf/internal/telemetry"
)

// mustParse builds a spec from inline YAML.
func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// mustPass runs the scenario at sweep 0 and fails the test on any check.
func mustPass(t *testing.T, spec *Spec) Report {
	t.Helper()
	rep := RunScenario(spec, 0, nil)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for _, c := range rep.Failures() {
		t.Errorf("%s: %s: %s", spec.Name, c.Name, c.Detail)
	}
	return rep
}

// TestEventSchedulingEdges drives the scheduling corners through the
// full engine: coincident events, kills of already-dead ranks, a
// checkpoint landing inside an active heal window, a fault window on a
// serial fleet.
func TestEventSchedulingEdges(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want func(t *testing.T, rep Report)
	}{
		{
			// Two kill events on the same step: one heal window, two
			// respawns, fleet back to full width.
			name: "two events same step",
			src: `
name: edge-same-step
fleet:
  servers: 3
  steps: 4
  scale: 0.02
options:
  cutoff: 10
  update_every: 2
  self_heal: true
events:
  - at: {step: 1}
    action: kill_server
    rank: 0
  - at: {step: 1}
    action: kill_server
    rank: 2
assert:
  energies_bit_identical: true
  respawns: 2
  respawns_equal_kills: true
`,
			want: func(t *testing.T, rep Report) {
				if rep.Respawns != 2 {
					t.Fatalf("respawns = %d, want 2", rep.Respawns)
				}
			},
		},
		{
			// Killing the same rank on consecutive steps kills the
			// freshly healed replacement — KillSchedule semantics: the
			// schedule total always equals the respawn count.
			name: "kill already-dead rank",
			src: `
name: edge-repeat-rank
fleet:
  servers: 2
  steps: 5
  scale: 0.02
options:
  cutoff: 10
  update_every: 1
  self_heal: true
events:
  - at: {step: 1}
    action: kill_server
    rank: 1
  - at: {step: 2}
    action: kill_server
    rank: 1
assert:
  energies_bit_identical: true
  respawns: 2
  respawns_equal_kills: true
`,
			want: func(t *testing.T, rep Report) {
				if rep.Respawns != 2 {
					t.Fatalf("replacement kill not delivered: respawns = %d, want 2", rep.Respawns)
				}
			},
		},
		{
			// A checkpoint requested for the kill step itself: the heal
			// window resolves first, the capture lands on the next update
			// boundary, and resuming it is still bit-exact (the restart
			// leg of the corpus pins that; here the capture must simply
			// happen exactly once).
			name: "checkpoint during heal window",
			src: `
name: edge-ckpt-in-heal
fleet:
  servers: 2
  steps: 6
  scale: 0.02
options:
  cutoff: 10
  update_every: 2
  self_heal: true
events:
  - at: {step: 2}
    action: kill_server
    rank: 0
  - at: {step: 2}
    action: checkpoint
assert:
  energies_bit_identical: true
  respawns: 1
  checkpoints_min: 1
`,
			want: func(t *testing.T, rep Report) {
				if rep.Checkpoints != 1 {
					t.Fatalf("checkpoints = %d, want exactly 1", rep.Checkpoints)
				}
			},
		},
		{
			// A fault window on a serial fleet: the serial client runs
			// the same AfterInit/AfterStep hooks that mute the plane and
			// open the window at step 2, so injected faults stretch the
			// makespan past the fault-free reference.
			name: "fault window on a serial fleet",
			src: `
name: edge-serial-window
fleet:
  servers: 0
  steps: 8
  scale: 0.02
options:
  cutoff: 10
events:
  - at: {step: 2}
    action: inject_fault
    rate: 0.9
    seed: 5
    until: {step: 6}
assert:
  energies_bit_identical: true
  wall_not_below_reference: true
`,
			want: func(t *testing.T, rep Report) {
				if rep.Injected == 0 || rep.Wall <= rep.RefWall {
					t.Fatalf("%d faults injected, wall %.7g vs reference %.7g: the window never opened",
						rep.Injected, rep.Wall, rep.RefWall)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustPass(t, mustParse(t, tc.src))
			tc.want(t, rep)
		})
	}
}

// TestZeroStepScenarioRejected pins the remaining scheduling edge: a
// scenario with no steps cannot host assertions and must be rejected at
// validation, not crash at run time.
func TestZeroStepScenarioRejected(t *testing.T) {
	_, err := Parse([]byte(`
name: zero
fleet:
  servers: 2
  steps: 0
assert:
  energies_bit_identical: true
`))
	if err == nil || !strings.Contains(err.Error(), "steps must be positive") {
		t.Fatalf("zero-step scenario not rejected: %v", err)
	}
}

// TestSweepReseedsSchedules pins the sweep contract: sweep index i
// offsets the kill seed, so different sweeps see different schedules
// while each still heals completely.
func TestSweepReseedsSchedules(t *testing.T) {
	spec := mustParse(t, `
name: sweep-reseed
fleet:
  servers: 2
  steps: 8
  scale: 0.02
options:
  cutoff: 10
  update_every: 2
  self_heal: true
kills:
  seed: 0
  rate: 0.12
assert:
  energies_bit_identical: true
  respawns_equal_kills: true
`)
	reports := Sweep(spec, 6, 2)
	if len(reports) != 6 {
		t.Fatalf("got %d reports", len(reports))
	}
	respawns := map[int]bool{}
	total := 0
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("sweep %d: %v", i, rep.Err)
		}
		if rep.Sweep != i {
			t.Fatalf("report %d carries sweep %d", i, rep.Sweep)
		}
		if !rep.Passed() {
			t.Fatalf("sweep %d failed: %+v", i, rep.Failures())
		}
		respawns[rep.Respawns] = true
		total += rep.Respawns
	}
	if total == 0 {
		t.Fatal("no sweep killed anything; the reseeding is not exercising respawns")
	}
	if len(respawns) < 2 {
		t.Fatalf("every sweep produced the same respawn count %v; seeds are not being offset", respawns)
	}
}

// TestRestartReplaysDeterministically pins the two-leg orchestration: a
// restart with a checkpoint resumes mid-run, replays the window between
// checkpoint and kill (re-delivering its kills), and stitches a
// bit-identical trajectory.
func TestRestartReplaysDeterministically(t *testing.T) {
	spec := mustParse(t, `
name: edge-restart
fleet:
  servers: 2
  steps: 8
  scale: 0.02
options:
  cutoff: 10
  update_every: 2
  checkpoint_every: 2
  self_heal: true
events:
  - at: {step: 3}
    action: kill_server
    rank: 0
  - at: {step: 5}
    action: restart
assert:
  energies_bit_identical: true
  respawns_equal_kills: true
  checkpoints_min: 1
`)
	rep := mustPass(t, spec)
	if rep.ResumedAt != 4 {
		t.Fatalf("resumed at %d, want 4 (latest boundary before the kill at 5)", rep.ResumedAt)
	}
	if rep.Steps != 8 {
		t.Fatalf("stitched %d steps, want 8", rep.Steps)
	}
	// The kill at step 3 lies before the resume point, so it is NOT
	// replayed; respawns_equal_kills already verified the accounting.
	if rep.Respawns != 1 {
		t.Fatalf("respawns = %d, want 1", rep.Respawns)
	}
}

// TestScenarioJournalCarriesID pins the telemetry satellite: scenario
// runs stamp their journal events with the scenario name, and the
// lifecycle events frame the run.
func TestScenarioJournalCarriesID(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	var buf bytes.Buffer
	telemetry.StartJournal(&buf, 64)
	defer telemetry.StopJournal()

	spec := mustParse(t, `
name: journal-id
fleet:
  servers: 2
  steps: 2
  scale: 0.02
options:
  cutoff: 10
`)
	if rep := RunScenario(spec, 0, nil); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	out := buf.String()
	for _, want := range []string{
		`"type":"scenario_start","scenario":"journal-id"`,
		`"type":"scenario_end"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("journal missing %s:\n%s", want, out)
		}
	}
}
