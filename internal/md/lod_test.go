package md

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// lodRun executes one parallel run and returns the result, the final
// per-proc kernel stats keyed by proc id, and the virtual makespan.
func lodRun(t *testing.T, sys *molecule.System, opts Options, nservers, steps int) (*Result, map[int]vm.Stats, float64) {
	t.Helper()
	s := pvm.NewSimVM(platform.J90(), nil)
	var res *Result
	var err error
	s.SpawnRoot("opal-client", func(task pvm.Task) {
		res, err = RunParallel(task, sys, opts, nservers, steps)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	stats := make(map[int]vm.Stats)
	for _, p := range s.Kernel.Procs() {
		stats[p.ID()] = p.Stats()
	}
	return res, stats, s.Time()
}

// assertLoDIdentical checks that a LoD-on run reproduced a LoD-off run
// bit-for-bit: energies, trajectories, makespan, recovery attribution
// and every proc's Stats breakdown.
func assertLoDIdentical(t *testing.T, label string,
	off, on *Result, offStats, onStats map[int]vm.Stats, offTime, onTime float64) {
	t.Helper()
	if len(off.Steps) != len(on.Steps) {
		t.Fatalf("%s: step counts differ: off %d, on %d", label, len(off.Steps), len(on.Steps))
	}
	for i := range off.Steps {
		a, b := off.Steps[i], on.Steps[i]
		if a != b {
			t.Fatalf("%s: step %d differs:\noff %+v\non  %+v", label, i, a, b)
		}
	}
	for i := range off.FinalPos {
		if off.FinalPos[i] != on.FinalPos[i] {
			t.Fatalf("%s: FinalPos[%d] differs: %v vs %v", label, i, off.FinalPos[i], on.FinalPos[i])
		}
	}
	for i := range off.FinalVel {
		if off.FinalVel[i] != on.FinalVel[i] {
			t.Fatalf("%s: FinalVel[%d] differs: %v vs %v", label, i, off.FinalVel[i], on.FinalVel[i])
		}
	}
	if off.Recoveries != on.Recoveries || off.Respawns != on.Respawns {
		t.Fatalf("%s: recovery attribution differs: off recoveries=%d respawns=%d, on recoveries=%d respawns=%d",
			label, off.Recoveries, off.Respawns, on.Recoveries, on.Respawns)
	}
	if off.RecoverySeconds != on.RecoverySeconds || off.RespawnSeconds != on.RespawnSeconds {
		t.Fatalf("%s: recovery seconds differ: off (%v, %v), on (%v, %v)",
			label, off.RecoverySeconds, off.RespawnSeconds, on.RecoverySeconds, on.RespawnSeconds)
	}
	if offTime != onTime {
		t.Fatalf("%s: makespan differs: off %v, on %v", label, offTime, onTime)
	}
	if len(offStats) != len(onStats) {
		t.Fatalf("%s: proc counts differ: off %d, on %d", label, len(offStats), len(onStats))
	}
	for id, a := range offStats {
		b, ok := onStats[id]
		if !ok {
			t.Fatalf("%s: proc %d missing from LoD-on run", label, id)
		}
		if a != b {
			t.Fatalf("%s: proc %d stats differ:\noff %+v\non  %+v", label, id, a, b)
		}
	}
}

// TestLoDBitIdenticalSeedSweep is the level-of-detail correctness
// property: across a sweep of seeds and option shapes — accounting on
// and off, full and partial pair-list updates, minimization and
// dynamics, effective and ineffective cut-offs — a macro-replayed run
// is bit-identical to a fine-grained run in energies, trajectories,
// Stats breakdowns and makespan, and the fault-free shapes actually
// replay macro phases rather than silently falling back.
func TestLoDBitIdenticalSeedSweep(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	const seeds = 40
	for seed := 0; seed < seeds; seed++ {
		sys := molecule.TestComplex(8+seed%5, 16+2*(seed%7), int64(seed+1))
		opts := Options{
			Cutoff:      10,
			UpdateEvery: 1 + seed%3,
			Seed:        int64(seed),
			Accounting:  seed%2 == 0,
			Minimize:    seed%3 == 0,
		}
		if seed%4 == 0 {
			opts.Cutoff = 0 // ineffective cut-off: all pairs active
		}
		if !opts.Minimize {
			opts.InitTemperature = 300
		}
		nservers := 1 + seed%3
		steps := 3 + seed%2

		offOpts, onOpts := opts, opts
		offOpts.LoD = LoDOff
		onOpts.LoD = LoDAuto
		macro0 := telemetry.LoDMacroPhases.Value()
		off, offStats, offTime := lodRun(t, sys, offOpts, nservers, steps)
		if telemetry.LoDMacroPhases.Value() != macro0 {
			t.Fatalf("seed %d: LoD-off run replayed macro phases", seed)
		}
		on, onStats, onTime := lodRun(t, sys, onOpts, nservers, steps)
		if telemetry.LoDMacroPhases.Value() == macro0 {
			t.Fatalf("seed %d: LoD-on fault-free run never replayed a macro phase", seed)
		}
		assertLoDIdentical(t, "seed", off, on, offStats, onStats, offTime, onTime)
	}
}

// TestLoDBitIdenticalWithKills covers the fallback half of the property:
// administrative kill schedules force fine-grained windows (counted as
// LoD fallbacks) in a self-healing run, and the healed run remains
// bit-identical to its fine-grained twin — including the respawn counts
// and the recovery-second attribution.
func TestLoDBitIdenticalWithKills(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	for seed := 0; seed < 10; seed++ {
		sys := molecule.TestComplex(8+seed%4, 16+2*(seed%5), int64(seed+100))
		kills := func(step int) []int {
			if step == 1 {
				return []int{seed % 3}
			}
			if step == 3 && seed%2 == 0 {
				return []int{(seed + 1) % 3}
			}
			return nil
		}
		opts := Options{
			Cutoff:      10,
			UpdateEvery: 2,
			Seed:        int64(seed),
			Minimize:    true,
			SelfHeal:    true,
			Kills:       kills,
		}
		const nservers, steps = 3, 5

		offOpts, onOpts := opts, opts
		offOpts.LoD = LoDOff
		onOpts.LoD = LoDAuto
		off, offStats, offTime := lodRun(t, sys, offOpts, nservers, steps)
		macro0 := telemetry.LoDMacroPhases.Value()
		fall0 := telemetry.LoDFallbackPhases.Value()
		on, onStats, onTime := lodRun(t, sys, onOpts, nservers, steps)
		if telemetry.LoDMacroPhases.Value() == macro0 {
			t.Fatalf("seed %d: kill run never replayed a macro phase outside the kill windows", seed)
		}
		if telemetry.LoDFallbackPhases.Value() == fall0 {
			t.Fatalf("seed %d: kill windows produced no LoD fallbacks", seed)
		}
		if on.Respawns == 0 {
			t.Fatalf("seed %d: kill schedule produced no respawns", seed)
		}
		assertLoDIdentical(t, "kills", off, on, offStats, onStats, offTime, onTime)
	}
}

// lodPhasesUnder runs a short fault-free-physics job with the given fault
// model installed (nil for none) and returns the run's macro and fallback
// phase counts.
func lodPhasesUnder(t *testing.T, fm vm.FaultModel, opts Options) (macro, fallback int) {
	t.Helper()
	sys := molecule.TestComplex(8, 16, 7)
	s := pvm.NewSimVM(platform.J90(), nil)
	if fm != nil {
		s.SetFaults(fm)
	}
	var res *Result
	var err error
	s.SpawnRoot("opal-client", func(task pvm.Task) {
		res, err = RunParallel(task, sys, opts, 2, 2)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.LoDMacroPhases, res.LoDFallbackPhases
}

// TestMacroReplayIsTheDefaultPath pins that nobody has to ask for macro
// replay: zero-value options on a fault-free simulated fabric replay every
// phase (an installed but inert plan is still fault-free), and only LoDOff
// turns it off.
func TestMacroReplayIsTheDefaultPath(t *testing.T) {
	const phases = 4 // 2 steps x (update + nbint), UpdateEvery defaults to 1
	for _, c := range []struct {
		name   string
		faults vm.FaultModel
		opts   Options
		macro  int
	}{
		{"zero options", nil, Options{}, phases},
		{"inert plan", fault.NewPlan(fault.Config{Seed: 3}), Options{}, phases},
		{"LoDOff", nil, Options{LoD: LoDOff}, 0},
	} {
		macro, fallback := lodPhasesUnder(t, c.faults, c.opts)
		if macro != c.macro || fallback != 0 {
			t.Errorf("%s: %d macro / %d fallback phases, want %d / 0", c.name, macro, fallback, c.macro)
		}
	}
}

// TestLoDAutoDisabledByFaultPlane checks the static half of LoDAuto's
// eligibility: with an active fault plane the run stays fine-grained —
// macro replay is never switched on, so no macro phases and no fallbacks
// either.
func TestLoDAutoDisabledByFaultPlane(t *testing.T) {
	opts := Options{Cutoff: 10, UpdateEvery: 1, Minimize: true, LoD: LoDAuto}
	macro, fallback := lodPhasesUnder(t, fault.NewPlan(fault.Config{Seed: 1, DelayRate: 0.5}), opts)
	if macro != 0 || fallback != 0 {
		t.Fatalf("active fault plane: %d macro / %d fallback phases, want 0 / 0", macro, fallback)
	}
}

// TestLoDAutoNeedsReactorServers checks the per-phase half: macro replay
// runs each server's own held call, so a LoDAuto run whose servers are on
// the blocking driver (blockingTask) — not Sciddle reactors — replays no
// phase and counts every phase as a fallback, in both modes, and stays
// bit-identical to the run whose reactor servers replay every phase.
func TestLoDAutoNeedsReactorServers(t *testing.T) {
	const nservers, steps, phases = 3, 4, 8 // UpdateEvery 1: update + nbint per step
	sys := molecule.TestComplex(8, 16, 7)
	defer func() { serve = sciddle.Serve }()
	for _, accounting := range []bool{false, true} {
		opts := Options{Cutoff: 10, Minimize: true, Accounting: accounting}
		on, onStats, onTime := lodRun(t, sys, opts, nservers, steps)
		serve = blockingServe
		blk, blkStats, blkTime := lodRun(t, sys, opts, nservers, steps)
		serve = sciddle.Serve
		if on.LoDMacroPhases != phases || on.LoDFallbackPhases != 0 {
			t.Errorf("accounting %v, reactor servers: %d macro / %d fallback phases, want %d / 0",
				accounting, on.LoDMacroPhases, on.LoDFallbackPhases, phases)
		}
		if blk.LoDMacroPhases != 0 || blk.LoDFallbackPhases != phases {
			t.Errorf("accounting %v, blocking servers: %d macro / %d fallback phases, want 0 / %d",
				accounting, blk.LoDMacroPhases, blk.LoDFallbackPhases, phases)
		}
		assertLoDIdentical(t, "blocking servers", blk, on, blkStats, onStats, blkTime, onTime)
	}
}

func TestParseLoDMode(t *testing.T) {
	for in, want := range map[string]LoDMode{"": LoDAuto, "auto": LoDAuto, "off": LoDOff} {
		if got, err := ParseLoDMode(in); err != nil || got != want {
			t.Errorf("ParseLoDMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"on", "default", "AUTO", "bogus"} {
		if _, err := ParseLoDMode(in); err == nil {
			t.Errorf("ParseLoDMode(%q) accepted", in)
		}
	}
	if LoDAuto != 0 {
		t.Error("LoDAuto must be the zero value of Options.LoD")
	}
}
