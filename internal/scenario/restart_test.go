package scenario

import (
	"fmt"
	"testing"

	"opalperf/internal/harness"
)

// restartDoc is the run the restart sweeps perturb: small system, two
// servers, eight unaccounted steps with a partial pair-list update — long
// enough for checkpoints and the client kill to land anywhere in the
// update interval.  extra is spliced into the document's top level (a
// faults or kills block); the client is killed at killAt and restarted
// from its latest periodic checkpoint, captured every `every` steps.
func restartDoc(every, killAt int, selfHeal bool, extra string) string {
	return fmt.Sprintf(`
name: restart-sweep
fleet:
  servers: 2
  steps: 8
  scale: 0.02
options:
  cutoff: 10
  update_every: 2
  checkpoint_every: %d
  self_heal: %v
%sevents:
  - at: {step: %d}
    action: restart
assert:
  energies_bit_identical: true
  respawns_equal_kills: true
`, every, selfHeal, extra, killAt)
}

// checkRestart fails the test on a run error or a failed check, and on a
// resume step after the kill or off a pair-list update boundary.
func checkRestart(t *testing.T, seed uint64, killAt int, rep Report) {
	t.Helper()
	if rep.Err != nil {
		t.Fatalf("seed %d (kill %d): %v", seed, killAt, rep.Err)
	}
	for _, c := range rep.Failures() {
		t.Fatalf("seed %d (kill %d): %s: %s", seed, killAt, c.Name, c.Detail)
	}
	if rep.ResumedAt > killAt {
		t.Fatalf("seed %d: resumed at %d, after the kill at %d", seed, rep.ResumedAt, killAt)
	}
	if rep.ResumedAt%2 != 0 {
		t.Fatalf("seed %d: resumed off a pair-list update boundary: %d", seed, rep.ResumedAt)
	}
}

// TestRestartFromCheckpointSweep is the client-kill extension of the
// chaos sweep: for every seed the client is killed at a seed-derived
// step and restarted from its latest periodic checkpoint (interval also
// seed-derived).  The stitched trajectory must be bit-identical to the
// uninterrupted run — odd seeds under a uniform fault plane too, since
// sim-fabric faults stretch the timeline but never change the physics.
func TestRestartFromCheckpointSweep(t *testing.T) {
	const seeds = 40
	var ref *harness.RunOutcome
	resumedMidRun := 0
	for seed := uint64(0); seed < seeds; seed++ {
		faults := ""
		if seed%2 == 1 {
			faults = fmt.Sprintf("faults:\n  seed: %d\n  rate: 0.05\n", seed)
		}
		every, killAt := 1+int(seed%3), 1+int(seed%7)
		spec := mustParse(t, restartDoc(every, killAt, false, faults))
		if ref == nil {
			// Every seed shares the fault-free reference: the sweep varies
			// faults, checkpoints and the kill, never the physics.
			var err error
			if ref, err = Reference(spec); err != nil {
				t.Fatal(err)
			}
		}
		rep := RunScenario(spec, 0, ref)
		checkRestart(t, seed, killAt, rep)
		if rep.ResumedAt > 0 {
			resumedMidRun++
		}
	}
	if resumedMidRun == 0 {
		t.Fatal("no seed resumed from a mid-run checkpoint; the sweep is not exercising restarts")
	}
}

// TestRestartOfSelfHealingRun stacks all three rungs of the recovery
// ladder over a sweep of kill seeds: servers die and are healed, the
// client is killed at step 5 and restarted from a periodic checkpoint,
// every kill (those the resumed leg replays included) is matched by a
// respawn, and the stitched trajectory still matches the undisturbed run
// bit for bit.
func TestRestartOfSelfHealingRun(t *testing.T) {
	const seeds, killAt = 8, 5
	spec := mustParse(t, restartDoc(2, killAt, true, "kills:\n  seed: 7\n  rate: 0.2\n"))
	respawns, resumedMidRun := 0, 0
	for _, rep := range Sweep(spec, seeds, 0) {
		checkRestart(t, uint64(rep.Sweep), killAt, rep)
		respawns += rep.Respawns
		if rep.ResumedAt > 0 {
			resumedMidRun++
		}
	}
	if respawns == 0 {
		t.Fatal("no respawns despite non-empty kill schedules")
	}
	if resumedMidRun == 0 {
		t.Fatal("no seed resumed from a mid-run checkpoint")
	}
}
