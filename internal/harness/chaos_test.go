package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// chaosSpec is the run the chaos sweep perturbs: small system, two
// servers, one accounted step — enough traffic to exercise every fault
// hook (sends, computes, barriers) while keeping a thousand runs cheap.
func chaosSpec(sys *molecule.System, faults *fault.Config) RunSpec {
	return RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts:     md.Options{Cutoff: EffectiveCutoff, UpdateEvery: 1, Accounting: true, Minimize: true},
		Servers:  2,
		Steps:    1,
		Faults:   faults,
	}
}

func samePhysics(t *testing.T, seed uint64, base, got *md.Result) {
	t.Helper()
	if len(base.Steps) != len(got.Steps) {
		t.Fatalf("seed %d: step count %d, want %d", seed, len(got.Steps), len(base.Steps))
	}
	for i := range base.Steps {
		if base.Steps[i] != got.Steps[i] {
			t.Fatalf("seed %d: step %d physics differ:\nbase %+v\ngot  %+v",
				seed, i, base.Steps[i], got.Steps[i])
		}
	}
	if len(base.FinalPos) != len(got.FinalPos) {
		t.Fatalf("seed %d: FinalPos length differs", seed)
	}
	for i := range base.FinalPos {
		if base.FinalPos[i] != got.FinalPos[i] {
			t.Fatalf("seed %d: FinalPos[%d] = %v, want %v", seed, i, got.FinalPos[i], base.FinalPos[i])
		}
	}
}

// TestChaosSweep runs the simulated fabric under ~1000 distinct fault
// schedules.  Every run must terminate, and because injected faults only
// stretch the timeline — they never corrupt, reorder or lose payloads for
// good — the physics of every faulted run must be bit-identical to the
// fault-free baseline while the wall clock only grows.
func TestChaosSweep(t *testing.T) {
	sys := Sizes(0.02)["small"]
	base, err := Run(chaosSpec(sys, nil))
	if err != nil {
		t.Fatal(err)
	}
	if base.Breakdown.Recovery != 0 {
		t.Fatalf("fault-free baseline has recovery time %v", base.Breakdown.Recovery)
	}

	const seeds = 1000
	faulted, totalInjected := 0, 0
	for seed := uint64(0); seed < seeds; seed++ {
		cfg := fault.Uniform(seed, 0.05)
		spec := chaosSpec(sys, &cfg)
		spec.Recorder = trace.NewRecorder() // read below over the full timelines
		out, err := Run(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		samePhysics(t, seed, base.Result, out.Result)
		if out.Wall < base.Wall-1e-12 {
			t.Fatalf("seed %d: wall %v shrank below fault-free %v", seed, out.Wall, base.Wall)
		}
		injected := out.FaultStats.Total()
		totalInjected += injected
		if injected > 0 {
			faulted++
		}
		// Recovery time appears exactly when a fault kind that charges it
		// fired (dup resends, crashes, stragglers); pure drops and delays
		// only stretch arrivals and surface as idle time.  Compare against
		// the full timelines: the windowed breakdown excludes faults that
		// land during initialization.
		charged := out.FaultStats.Dups + out.FaultStats.Crashes + out.FaultStats.Stragglers
		var recovery float64
		for _, s := range out.Recorder.Segments() {
			if s.Kind == vm.SegRecovery {
				recovery += s.End - s.Start
			}
		}
		if charged > 0 && recovery <= 0 {
			t.Fatalf("seed %d: %d recovery-charging faults but zero recovery time", seed, charged)
		}
		if charged == 0 && recovery != 0 {
			t.Fatalf("seed %d: recovery time %v without a charging fault", seed, recovery)
		}
	}
	if faulted < seeds/2 {
		t.Fatalf("only %d/%d schedules injected anything — sweep is not exercising faults", faulted, seeds)
	}
	t.Logf("chaos sweep: %d/%d runs faulted, %d faults injected", faulted, seeds, totalInjected)
}

// renderOne renders the run's breakdown with every term at full
// precision, as the byte-comparison payload.
func renderOne(out RunOutcome) string {
	return fmt.Sprintf("%+v", out.Breakdown)
}

// TestChaosReplayBitIdentical re-runs a subset of seeds and demands the
// exact same timeline: one seed is one fault schedule, bit for bit, so
// breakdowns, fault counts and rendered figures must all match.
func TestChaosReplayBitIdentical(t *testing.T) {
	sys := Sizes(0.02)["small"]
	for seed := uint64(0); seed < 1000; seed += 97 {
		cfg := fault.Uniform(seed, 0.1)
		a, err := Run(chaosSpec(sys, &cfg))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(chaosSpec(sys, &cfg))
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if a.Wall != b.Wall {
			t.Fatalf("seed %d: wall %v vs replay %v", seed, a.Wall, b.Wall)
		}
		if a.Breakdown != b.Breakdown {
			t.Fatalf("seed %d: breakdowns differ:\n%+v\n%+v", seed, a.Breakdown, b.Breakdown)
		}
		if a.FaultStats != b.FaultStats {
			t.Fatalf("seed %d: fault stats differ: %+v vs %+v", seed, a.FaultStats, b.FaultStats)
		}
		if ra, rb := renderOne(a), renderOne(b); ra != rb {
			t.Fatalf("seed %d: rendered figures differ:\n%s\n---\n%s", seed, ra, rb)
		}
	}
}

// TestZeroRateFaultConfigByteIdenticalToNil pins the golden contract: a
// fault config with every rate zero must leave the run — breakdown and
// rendered figure bytes — exactly as if no fault plane were installed.
func TestZeroRateFaultConfigByteIdenticalToNil(t *testing.T) {
	sys := Sizes(0.02)["small"]
	bare, err := Run(chaosSpec(sys, nil))
	if err != nil {
		t.Fatal(err)
	}
	zero := fault.Config{Seed: 0}
	wired, err := Run(chaosSpec(sys, &zero))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Breakdown != wired.Breakdown {
		t.Fatalf("breakdowns differ:\nnil  %+v\nzero %+v", bare.Breakdown, wired.Breakdown)
	}
	if bare.Wall != wired.Wall {
		t.Fatalf("wall differs: %v vs %v", bare.Wall, wired.Wall)
	}
	if got, want := renderOne(wired), renderOne(bare); got != want {
		t.Fatalf("rendered figure differs under zero-rate plan:\n%s\n---\n%s", got, want)
	}
	if wired.FaultStats.Total() != 0 {
		t.Fatalf("zero-rate plan injected faults: %+v", wired.FaultStats)
	}
}

// TestAllServersLostIsTheRunError: a kill schedule that outlasts the
// respawn budget degrades the fleet to zero servers.  The run must fail
// with the engine's "all servers lost", not with a kernel deadlock of the
// dropped servers left parked in their receive loops.
func TestAllServersLostIsTheRunError(t *testing.T) {
	kills := fault.KillSchedule{1: {0}, 2: {0}, 3: {0}}
	_, err := Run(RunSpec{
		Platform: platform.J90(), Sys: molecule.TestComplex(8, 16, 5),
		Opts: md.Options{Cutoff: 10, Minimize: true, SelfHeal: true, MaxRespawns: 1,
			Kills: kills.Func()},
		Servers: 2, Steps: 6,
	})
	var deadlock *vm.DeadlockError
	if err == nil || !strings.Contains(err.Error(), "all servers lost") || errors.As(err, &deadlock) {
		t.Fatalf("fleet killed past its respawn budget: err = %v, want md's all-servers-lost error", err)
	}
}

// healSpec is the run the self-heal sweep perturbs: small system, two
// servers, several unaccounted steps with a partial pair-list update —
// long enough for kills to land anywhere in the update interval.
func healSpec() RunSpec {
	return RunSpec{
		Platform: platform.J90(),
		Sys:      Sizes(0.02)["small"],
		Opts:     md.Options{Cutoff: EffectiveCutoff, UpdateEvery: 2, Minimize: true},
		Servers:  2,
		Steps:    8,
	}
}

// TestSelfHealKillSweepSim drives seeded respawn-aware crash schedules
// (fault.Kills) through the self-healing parallel engine: every run must
// finish with Respawns equal to the schedule's kill count, the fleet
// back at its configured width, and physics bit-identical to the
// fault-free run.
func TestSelfHealKillSweepSim(t *testing.T) {
	spec := healSpec()
	spec.Opts.SelfHeal = true
	base, err := Run(healSpec())
	if err != nil {
		t.Fatal(err)
	}

	const seeds = 25
	killed := 0
	for seed := uint64(0); seed < seeds; seed++ {
		ks := fault.Kills(seed, spec.Steps, spec.Servers, 0.12)
		s := spec
		s.Opts.Kills = ks.Func()
		out, err := Run(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Result.Respawns != ks.Total() {
			t.Fatalf("seed %d: Respawns = %d, want %d (the schedule's kill count)",
				seed, out.Result.Respawns, ks.Total())
		}
		if len(out.Result.ServerTIDs) != spec.Servers {
			t.Fatalf("seed %d: fleet width %d, want %d", seed, len(out.Result.ServerTIDs), spec.Servers)
		}
		if ks.Total() > 0 && out.Result.RespawnSeconds <= 0 {
			t.Fatalf("seed %d: %d kills but no respawn time accounted", seed, ks.Total())
		}
		killed += ks.Total()
		samePhysics(t, seed, base.Result, out.Result)
	}
	if killed == 0 {
		t.Fatal("no schedule killed anything; the sweep is not exercising respawns")
	}
}
