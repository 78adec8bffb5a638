package scenario

// Compiling a declarative Spec onto the engine's knobs: the run
// configuration goes through harness.Config.RunSpec like every front
// end's, the kills block and kill_server events become one merged
// fault.KillSchedule, inject_fault events a muted fault.Plan whose active
// windows are toggled from the client's step hooks, and checkpoint events
// an Options.CheckpointAt predicate.  Sweeps offset the fault and kill
// seeds by the sweep index, so `-seeds N` explores N distinct schedules
// of the same scenario.

import (
	"fmt"
	"sort"

	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
)

// window is a half-open absolute-step interval [Start, End) during which
// the injected fault plane is live.
type window struct {
	Start, End int
}

// plan is a Spec compiled for one sweep index: everything RunScenario
// needs to assemble the harness legs.
type plan struct {
	// base is the whole run as harness.Config.RunSpec compiles it, fault
	// plane included; per-leg hooks are layered on copies.
	base harness.RunSpec

	kills     fault.KillSchedule // merged schedule, absolute steps
	windows   []window           // non-empty only with inject_fault events
	ckptAt    map[int]bool       // absolute steps of timed checkpoints
	restartAt int                // 0: no restart event
}

// compile resolves the spec for one sweep index.  The spec must already
// be validated.
func (s *Spec) compile(sweep int) (*plan, error) {
	if sweep < 0 {
		return nil, fmt.Errorf("scenario: sweep index must be non-negative, have %d", sweep)
	}
	cfg := s.Config
	if s.Faults != nil {
		f := *s.Faults
		f.Seed += uint64(sweep)
		cfg.Faults = &f
	}
	p := &plan{}

	// Merge the seeded kill sweep and the timed kill_server events into
	// one absolute-step schedule.  Ordering within a step follows the
	// schedule's draw order then event order; killing a rank twice kills
	// its replacement (fault.KillSchedule semantics).
	if s.Kills != nil {
		p.kills = fault.Kills(s.Kills.Seed+uint64(sweep), s.Fleet.Steps, s.Fleet.Servers, s.Kills.Rate)
	}
	for _, ev := range s.Events {
		switch ev.Action {
		case ActKillServer:
			if p.kills == nil {
				p.kills = fault.KillSchedule{}
			}
			p.kills[ev.At.Step] = append(p.kills[ev.At.Step], ev.Rank)
		case ActCheckpoint:
			if p.ckptAt == nil {
				p.ckptAt = map[int]bool{}
			}
			p.ckptAt[ev.At.Step] = true
		case ActRestart:
			p.restartAt = ev.At.Step
		case ActInjectFault:
			end := s.Fleet.Steps
			if ev.Until != nil {
				end = ev.Until.Step
			}
			p.windows = append(p.windows, window{Start: ev.At.Step, End: end})
			if cfg.Faults == nil {
				cfg.Faults = &harness.FaultSpec{Seed: ev.Seed + uint64(sweep), Rate: ev.Rate}
			}
		}
	}
	sort.Slice(p.windows, func(i, j int) bool { return p.windows[i].Start < p.windows[j].Start })

	sys, err := harness.Size(s.Fleet.Size, s.Fleet.Scale)
	if err == nil {
		p.base, err = cfg.RunSpec(sys)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return p, nil
}

// inWindow reports whether the injected fault plane is live at the given
// absolute step.
func (p *plan) inWindow(step int) bool {
	for _, w := range p.windows {
		if step >= w.Start && step < w.End {
			return true
		}
	}
	return false
}

// killsExecuted counts the kills delivered over the absolute step range
// [from, to) — what a leg running those steps observes.
func (p *plan) killsExecuted(from, to int) int {
	n := 0
	for step, ranks := range p.kills {
		if step >= from && step < to {
			n += len(ranks)
		}
	}
	return n
}

// expectedRespawns is the kill count a budget-unconstrained self-healing
// run of this plan must report as respawns.  With a restart event the
// resumed leg replays the steps between the checkpoint and the kill
// point, re-delivering their kills.
func (p *plan) expectedRespawns(resumedAt int) int {
	total := p.kills.Total()
	if p.restartAt > 0 {
		total += p.killsExecuted(resumedAt, p.restartAt)
	}
	return total
}

// legSpec assembles the harness spec for one leg of the run: steps
// [startStep, startStep+steps), options layered with the leg-relative
// kill schedule, the absolute checkpoint predicate and the fault-window
// gating hooks.
func (p *plan) legSpec(opts md.Options, startStep, steps int, sink func(*md.Checkpoint) error) harness.RunSpec {
	if p.kills != nil {
		sched := p.kills
		opts.Kills = func(rel int) []int { return sched[startStep+rel] }
	}
	if p.ckptAt != nil {
		at := p.ckptAt
		opts.CheckpointAt = func(abs int) bool { return at[abs] }
	}
	if sink != nil && (opts.CheckpointEvery > 0 || opts.CheckpointAt != nil) {
		opts.CheckpointSink = sink
	} else {
		opts.CheckpointSink = nil
		opts.CheckpointEvery = 0
		opts.CheckpointAt = nil
	}
	spec := p.base
	spec.Opts, spec.Steps = opts, steps
	if len(p.windows) > 0 {
		// The plane starts muted; the client's step hooks — which run
		// while it holds the execution token — open and close the
		// windows.  The pseudo-random stream is a pure function of the
		// config and the windows, so replays are identical.
		var live *fault.Plan
		spec.OnPlan = func(fp *fault.Plan) {
			live = fp
			fp.SetActive(false)
		}
		prevInit, prevStep := spec.Opts.AfterInit, spec.Opts.AfterStep
		spec.Opts.AfterInit = func() {
			if prevInit != nil {
				prevInit()
			}
			live.SetActive(p.inWindow(startStep))
		}
		spec.Opts.AfterStep = func(step int, info md.StepInfo) {
			if prevStep != nil {
				prevStep(step, info)
			}
			live.SetActive(p.inWindow(startStep + step + 1))
		}
	}
	return spec
}

// referenceSpec is the fault-free, fine-grained twin of the scenario:
// same fleet, same options, no faults, kills, events, checkpointing or
// macro replay.  Bit-identity and makespan assertions compare against its
// outcome.
func (p *plan) referenceSpec() harness.RunSpec {
	ref := p.base
	ref.Faults = nil
	ref.Opts.CheckpointEvery = 0 // no sink on the reference run
	ref.Opts.LoD = md.LoDOff
	return ref
}

// NeedsReference reports whether any assertion compares against the
// fault-free reference run.
func (s *Spec) NeedsReference() bool {
	a := &s.Assert
	return a.EnergiesBitIdentical || a.WallNotBelowReference || a.MakespanFactor != nil ||
		a.FinalEnergyRelTol != nil
}
