package scenario

// Executing one compiled scenario and judging its assertions.  A run is
// one leg, or two when the scenario carries a restart event: the first
// leg is killed at the restart step, the second resumes from the latest
// checkpoint (or from scratch) and the trajectories are stitched
// (md.StitchRestart).  The kill schedule and fault windows are in absolute
// steps; each leg rebases them onto its own, so the resumed leg replays
// the kills between the checkpoint and the restart step.  These two legs
// are the one client-restart driver.

import (
	"fmt"
	"math"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/oracle"
	"opalperf/internal/telemetry"
)

// Check is the verdict of one assertion.
type Check struct {
	Name   string
	OK     bool
	Detail string // what was measured vs wanted, for failure reports
}

// Report is the outcome of one scenario execution at one sweep index.
type Report struct {
	Scenario string
	Sweep    int
	Err      error // compile or run failure; Checks is empty when set

	// Spec is the run identity, harness.SpecHashOf of the whole run from
	// step 0 (fault seed, kill presence and all), the key archived
	// summaries group by.
	Spec string

	Wall    float64
	RefWall float64 // 0 when no reference assertion was requested
	Steps   int

	// EnergiesHash digests the stitched per-step total-energy trajectory
	// (the determinism witness); FinalEnergy is the last step's total.
	EnergiesHash string
	FinalEnergy  float64

	Respawns    int
	Recoveries  int
	Checkpoints int
	ResumedAt   int // absolute checkpoint step a restart resumed from
	Injected    int // faults delivered by the fault plane
	Anomalies   int

	LoDMacroPhases    int
	LoDFallbackPhases int

	Checks []Check
}

// Passed reports whether the run completed and every check held.
func (r *Report) Passed() bool {
	if r.Err != nil {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Failures returns the failed checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Reference runs the scenario's fault-free twin once.  Sweeping reuses
// one reference for every seed: sweeps only reseed the fault and kill
// schedules, never the physics.
func Reference(spec *Spec) (*harness.RunOutcome, error) {
	p, err := spec.compile(0)
	if err != nil {
		return nil, err
	}
	out, err := harness.Run(p.referenceSpec())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: reference run: %w", spec.Name, err)
	}
	return &out, nil
}

// RunScenario executes the scenario at one sweep index and evaluates its
// assertions.  ref carries the fault-free reference outcome when the
// scenario asserts against one (see Spec.NeedsReference); pass nil to
// have it computed here.
func RunScenario(spec *Spec, sweep int, ref *harness.RunOutcome) Report {
	rep := Report{Scenario: spec.Name, Sweep: sweep}
	p, err := spec.compile(sweep)
	if err != nil {
		rep.Err = err
		return rep
	}
	if spec.NeedsReference() && ref == nil {
		if ref, err = Reference(spec); err != nil {
			rep.Err = err
			return rep
		}
	}
	telemetry.Emit("scenario_start", telemetry.F{
		"scenario": spec.Name, "sweep": sweep, "steps": spec.Fleet.Steps,
		"servers": spec.Fleet.Servers,
	})

	var orc *oracle.Oracle
	if spec.Assert.Oracle != nil {
		orc = oracle.New(harness.OracleConfig(p.base, spec.Assert.Oracle.Window))
	}

	var latest *md.Checkpoint
	checkpoints := 0
	sink := func(cp *md.Checkpoint) error {
		latest = cp
		checkpoints++
		telemetry.Emit("scenario_checkpoint", telemetry.F{
			"scenario": spec.Name, "sweep": sweep, "step": cp.Step,
		})
		return nil
	}

	var result *md.Result
	injected := 0 // faults injected, summed over the legs
	resumedAt := 0
	rep.Spec = harness.SpecHashOf(p.legSpec(p.base.Opts, 0, spec.Fleet.Steps, nil))
	if p.restartAt == 0 {
		leg := p.legSpec(p.base.Opts, 0, spec.Fleet.Steps, sink)
		leg.Oracle = orc
		out, err := harness.Run(leg)
		if err != nil {
			rep.Err = fmt.Errorf("scenario %s sweep %d: %w", spec.Name, sweep, err)
			return rep
		}
		result = out.Result
		rep.Wall = out.Wall
		injected += out.FaultStats.Total()
	} else {
		// Leg 1: run to the restart step, capturing checkpoints.
		first := p.legSpec(p.base.Opts, 0, p.restartAt, sink)
		fo, err := harness.Run(first)
		if err != nil {
			rep.Err = fmt.Errorf("scenario %s sweep %d: first leg: %w", spec.Name, sweep, err)
			return rep
		}
		injected += fo.FaultStats.Total()
		// Leg 2: resume from the latest checkpoint, or replay from the
		// start when none was captured before the kill.
		sys, opts := p.base.Sys, p.base.Opts
		if latest != nil {
			ropts, err := latest.Resume(opts)
			if err != nil {
				rep.Err = fmt.Errorf("scenario %s sweep %d: resuming: %w", spec.Name, sweep, err)
				return rep
			}
			opts = ropts
			sys = latest.Sys
			resumedAt = latest.Step
		}
		telemetry.Emit("scenario_restart", telemetry.F{
			"scenario": spec.Name, "sweep": sweep,
			"killed_at": p.restartAt, "resumed_at": resumedAt,
		})
		second := p.legSpec(opts, resumedAt, spec.Fleet.Steps-resumedAt, sink)
		second.Sys = sys
		so, err := harness.Run(second)
		if err != nil {
			rep.Err = fmt.Errorf("scenario %s sweep %d: resumed leg: %w", spec.Name, sweep, err)
			return rep
		}
		injected += so.FaultStats.Total()
		result = md.StitchRestart(fo.Result, so.Result, resumedAt)
		// The restarted run's makespan is the sum of both legs — the
		// price of the replayed window is part of what makespan_factor
		// bounds.
		rep.Wall = fo.Wall + so.Wall
	}

	rep.Steps = len(result.Steps)
	rep.EnergiesHash = archive.HashFloats(result.Energies())
	rep.FinalEnergy = result.FinalEnergy()
	rep.Respawns = result.Respawns
	rep.Recoveries = result.Recoveries
	rep.Checkpoints = checkpoints
	rep.ResumedAt = resumedAt
	rep.Injected = injected
	rep.LoDMacroPhases = result.LoDMacroPhases
	rep.LoDFallbackPhases = result.LoDFallbackPhases
	if orc != nil {
		rep.Anomalies = orc.Anomalies()
	}
	rep.Checks = evaluate(spec, p, result, &rep, ref, orc, resumedAt)

	ev := telemetry.F{
		"scenario": spec.Name, "sweep": sweep, "pass": rep.Passed(),
		"respawns": rep.Respawns, "checkpoints": rep.Checkpoints,
	}
	if fails := rep.Failures(); len(fails) > 0 {
		names := make([]string, len(fails))
		for i, c := range fails {
			names[i] = c.Name
		}
		ev["failed"] = names
	}
	telemetry.Emit("scenario_end", ev)
	return rep
}

// evaluate judges every asserted check against the stitched result.
func evaluate(spec *Spec, p *plan, res *md.Result, rep *Report, ref *harness.RunOutcome, orc *oracle.Oracle, resumedAt int) []Check {
	a := &spec.Assert
	var checks []Check
	add := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	if a.EnergiesBitIdentical {
		ok, detail := samePhysics(ref.Result, res)
		add("energies_bit_identical", ok, "%s", detail)
	}
	if a.WallNotBelowReference {
		rep.RefWall = ref.Wall
		ok := rep.Wall >= ref.Wall-1e-12
		add("wall_not_below_reference", ok, "wall %.6g vs reference %.6g", rep.Wall, ref.Wall)
	}
	if a.MakespanFactor != nil {
		rep.RefWall = ref.Wall
		limit := *a.MakespanFactor * ref.Wall
		ok := rep.Wall <= limit+1e-12
		add("makespan_factor", ok, "wall %.6g vs limit %.6g (%.3gx reference %.6g)",
			rep.Wall, limit, *a.MakespanFactor, ref.Wall)
	}
	if a.FinalEnergyRelTol != nil {
		got, want := res.FinalEnergy(), ref.Result.FinalEnergy()
		rel := math.Abs(got-want) / math.Max(math.Abs(want), 1)
		add("final_energy_rel_tol", rel <= *a.FinalEnergyRelTol,
			"final energy %.12g vs reference %.12g (rel %.3g, tol %.3g)", got, want, rel, *a.FinalEnergyRelTol)
	}
	if a.RespawnsEqualKills {
		want := p.expectedRespawns(resumedAt)
		add("respawns_equal_kills", res.Respawns == want, "respawns %d, kills delivered %d", res.Respawns, want)
	}
	if a.Respawns != nil {
		add("respawns", res.Respawns == *a.Respawns, "respawns %d, want %d", res.Respawns, *a.Respawns)
	}
	if a.Recoveries != nil {
		add("recoveries", res.Recoveries == *a.Recoveries, "recoveries %d, want %d", res.Recoveries, *a.Recoveries)
	}
	if a.HealWithinSeconds != nil {
		ok := res.RespawnSeconds <= *a.HealWithinSeconds
		add("heal_within_seconds", ok, "respawn time %.6g s, budget %.6g s", res.RespawnSeconds, *a.HealWithinSeconds)
	}
	if a.CheckpointsMin != nil {
		add("checkpoints_min", rep.Checkpoints >= *a.CheckpointsMin,
			"checkpoints %d, want >= %d", rep.Checkpoints, *a.CheckpointsMin)
	}
	if a.Converged != nil {
		add("converged", res.Converged == *a.Converged, "converged %v, want %v", res.Converged, *a.Converged)
	}
	if a.LoDMacroMin != nil {
		add("lod_macro_min", res.LoDMacroPhases >= *a.LoDMacroMin,
			"macro phases %d, want >= %d", res.LoDMacroPhases, *a.LoDMacroMin)
	}
	if a.LoDMacroMax != nil {
		add("lod_macro_max", res.LoDMacroPhases <= *a.LoDMacroMax,
			"macro phases %d, want <= %d", res.LoDMacroPhases, *a.LoDMacroMax)
	}
	if a.LoDFallbackMin != nil {
		add("lod_fallback_min", res.LoDFallbackPhases >= *a.LoDFallbackMin,
			"fallback phases %d, want >= %d", res.LoDFallbackPhases, *a.LoDFallbackMin)
	}
	if a.LoDFallbackMax != nil {
		add("lod_fallback_max", res.LoDFallbackPhases <= *a.LoDFallbackMax,
			"fallback phases %d, want <= %d", res.LoDFallbackPhases, *a.LoDFallbackMax)
	}
	if a.Oracle != nil {
		anomalies := orc.Anomalies()
		add("oracle_anomaly", (anomalies > 0) == a.Oracle.Anomaly,
			"anomalies %d, want fired=%v", anomalies, a.Oracle.Anomaly)
		if a.Oracle.Anomaly && len(a.Oracle.Terms) > 0 {
			allowed := map[string]bool{}
			for _, t := range a.Oracle.Terms {
				allowed[t] = true
			}
			ok := true
			detail := "every anomaly attributed to an expected term"
			for term, n := range orc.AnomalyTerms() {
				if n > 0 && !allowed[term] {
					ok = false
					detail = fmt.Sprintf("anomaly attributed to unexpected term %q (%d times)", term, n)
					break
				}
			}
			add("oracle_terms", ok, "%s", detail)
		}
	}
	return checks
}

// samePhysics compares a run's trajectory bit-for-bit against the
// fault-free reference — the invariant the chaos suite pins: faults and
// heals stretch the clock, never the physics.
func samePhysics(base, got *md.Result) (bool, string) {
	if len(base.Steps) != len(got.Steps) {
		return false, fmt.Sprintf("step count %d, want %d", len(got.Steps), len(base.Steps))
	}
	for i := range base.Steps {
		if base.Steps[i] != got.Steps[i] {
			return false, fmt.Sprintf("step %d physics differ: got %+v, want %+v", i, got.Steps[i], base.Steps[i])
		}
	}
	if len(base.FinalPos) != len(got.FinalPos) {
		return false, fmt.Sprintf("FinalPos length %d, want %d", len(got.FinalPos), len(base.FinalPos))
	}
	for i := range base.FinalPos {
		if base.FinalPos[i] != got.FinalPos[i] {
			return false, fmt.Sprintf("FinalPos[%d] = %v, want %v", i, got.FinalPos[i], base.FinalPos[i])
		}
	}
	if math.IsNaN(got.FinalEnergy()) != math.IsNaN(base.FinalEnergy()) {
		return false, "final energy NaN mismatch"
	}
	return true, fmt.Sprintf("%d steps bit-identical", len(base.Steps))
}
