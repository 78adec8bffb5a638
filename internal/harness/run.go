// Package harness is the run path: one instrumented Opal run on a
// simulated platform (Run, RunMany), its schema (Config), its identity
// (SpecHashOf), the paper's problem sizes and cut-offs, and the journal
// and archive wiring of a front end (StartRecording).  The paper's
// evaluation that drives it is internal/paper.
package harness

import (
	"fmt"

	"opalperf/internal/archive"
	"opalperf/internal/core"
	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/oracle"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

// RunSpec describes one instrumented Opal run on a virtual platform.
type RunSpec struct {
	Platform *platform.Platform
	Sys      *molecule.System
	Opts     md.Options
	Servers  int // 0 = serial engine
	Steps    int
	// Faults, when non-nil, installs a seeded fault plan on the simulated
	// kernel.  A fresh plan is created per run, so re-running the same spec
	// replays the identical fault schedule.
	Faults *fault.Config
	// Oracle, when non-nil, arms the model-in-the-loop checker: it is
	// attached to the run's recorder and fed from the step loop.  Pure
	// observation — the run's physics and virtual timings are untouched.
	Oracle *oracle.Oracle
	// OnPlan, when set with Faults, receives the freshly created fault
	// plan before the simulation starts — the handle scenario step hooks
	// use to gate injection windows (fault.Plan.SetActive).
	OnPlan func(*fault.Plan)
	// Archive, when non-nil, receives a one-record RunSummary digest of
	// every successful run — makespan, breakdown terms, the energies hash,
	// recovery and LoD counts, and the oracle's residual means when one is
	// armed.  The summary's spec is SpecHashOf of this spec, whichever
	// front end built it, so cross-run queries group runs of the identical
	// configuration.
	Archive *archive.Sink
	// Recorder, when non-nil, is the run's trace recorder: pass
	// trace.NewRecorder() to read the run's intervals afterwards (timeline,
	// Chrome export, middleware metrics, totals over other windows).  When
	// nil, the run is traced only if an Oracle (which reads windows
	// mid-run) or the Scope's comm matrix (which books every segment into
	// its rank profile) needs it; the Breakdown never does, the kernel sums
	// the measurement window.  Like every hook, it is not part of
	// SpecHashOf.
	Recorder *trace.Recorder
	// Scope, when non-nil, is the run's telemetry: the ID its journal
	// lines and archived summary carry, the health its supervisor and
	// oracle report, and its comm matrix when one is armed.  When nil the
	// run gets a fresh scope stamped with the process run ID.  Like every
	// hook, it is not part of SpecHashOf.
	Scope *telemetry.Scope
}

// RunOutcome is the measured outcome of a run.
type RunOutcome struct {
	Breakdown trace.Breakdown
	Result    *md.Result
	// Wall is the virtual time of the simulation steps (excluding the
	// amortized initialization, as in the paper's measurements).
	Wall float64
	// Recorder is the run's recorder, never nil: RunSpec.Recorder with its
	// full classified timelines when one was passed, the one an oracle or
	// comm matrix needed, else an empty one.
	Recorder *trace.Recorder
	// FaultStats counts the faults injected during the run (zero value
	// when RunSpec.Faults was nil).
	FaultStats fault.Stats
}

// Run executes one run and aggregates its execution-time breakdown.
// Timing starts after server initialization, matching the paper's
// measurement of the simulation phase.
func Run(spec RunSpec) (RunOutcome, error) {
	sc := spec.Scope
	if sc == nil {
		sc = &telemetry.Scope{ID: telemetry.Run()}
		spec.Scope = sc
	}
	rec := tracerOf(spec)
	sim := pvm.NewSimVM(spec.Platform, rec)
	sim.Kernel.HoldWindow()
	sim.SetScope(sc)
	sc.Emit("run_start", telemetry.F{
		"platform": spec.Platform.Name, "system": spec.Sys.Name,
		"servers": spec.Servers, "steps": spec.Steps,
	})
	var plan *fault.Plan
	if spec.Faults != nil {
		plan = fault.NewPlan(*spec.Faults)
		sim.SetFaults(plan)
		if spec.OnPlan != nil {
			spec.OnPlan(plan)
		}
	}
	var res *md.Result
	var runErr error
	opts := spec.Opts
	if every := sc.MatrixEvery; sc.Matrix != nil && every > 0 {
		// Periodic comm_matrix/rank_profile journal records; the final
		// state is emitted after the run regardless.
		prev := opts.AfterStep
		opts.AfterStep = func(step int, info md.StepInfo) {
			if prev != nil {
				prev(step, info)
			}
			if (step+1)%every == 0 {
				sc.EmitMatrix()
			}
		}
	}
	sim.SpawnRoot("opal-client", func(t pvm.Task) {
		if spec.Oracle != nil {
			// The hooks run on the client goroutine while it holds the
			// execution token, so t.Now() is exact and race-free.
			o := spec.Oracle
			o.Attach(sc, rec, 0, spec.Servers)
			prevInit, prevStep := opts.AfterInit, opts.AfterStep
			opts.AfterInit = func() {
				if prevInit != nil {
					prevInit()
				}
				o.Start(t.Now())
			}
			opts.AfterStep = func(step int, info md.StepInfo) {
				if prevStep != nil {
					prevStep(step, info)
				}
				o.StepDone(step, t.Now(), info.PairChecks, info.ActivePairs)
			}
		}
		if spec.Servers <= 0 {
			res, runErr = md.RunSerial(t, spec.Sys, opts, spec.Steps)
			return
		}
		res, runErr = md.RunParallel(t, spec.Sys, opts, spec.Servers, spec.Steps)
	})
	if err := sim.Run(); err != nil {
		sc.Emit("run_end", telemetry.F{"error": err.Error()})
		return RunOutcome{}, fmt.Errorf("harness: simulation: %w", err)
	}
	if runErr != nil {
		sc.Emit("run_end", telemetry.F{"error": runErr.Error()})
		return RunOutcome{}, runErr
	}
	out := RunOutcome{Result: res, Wall: res.StepSeconds, Recorder: rec}
	if rec == nil {
		out.Recorder = trace.NewRecorder()
	}
	if spec.Oracle != nil {
		spec.Oracle.Finish(res.EndSeconds)
	}
	sc.EmitMatrix()
	sc.Emit("run_end", telemetry.F{
		"wall": out.Wall, "steps": len(res.Steps),
		"respawns": res.Respawns, "recoveries": res.Recoveries,
	})
	if plan != nil {
		out.FaultStats = plan.Stats()
	}
	out.Breakdown = windowBreakdown(sim, res, out.Wall)
	if spec.Archive != nil {
		// Summary loss must not fail a completed run: the physics are
		// done, the warehouse can be refilled by the next run.
		_ = spec.Archive.Put(summaryOf(spec, out))
	}
	return out, nil
}

// tracerOf returns the recorder a run's kernel traces into: the spec's
// own, a fresh one when an oracle or the scope's comm matrix reads the
// segments, else nil — an untraced run.
func tracerOf(spec RunSpec) *trace.Recorder {
	if spec.Recorder == nil && (spec.Oracle != nil || spec.Scope != nil && spec.Scope.Matrix != nil) {
		return trace.NewRecorder()
	}
	return spec.Recorder
}

// windowBreakdown aggregates the simulation window of a run on sim —
// excluding the amortized initialization and the shutdown handshake, the
// window the engine reported — from the totals its kernel summed.
func windowBreakdown(sim *pvm.SimVM, res *md.Result, wall float64) trace.Breakdown {
	tot := sim.Kernel.WindowTotals(append([]int{0}, res.ServerTIDs...)...)
	return trace.BreakdownOf(tot[0], tot[1:], wall)
}

// summaryOf distills a run outcome into its archive digest, named by the
// run's scope.
func summaryOf(spec RunSpec, out RunOutcome) archive.RunSummary {
	res := out.Result
	b := out.Breakdown
	sum := archive.RunSummary{
		Run:          spec.Scope.ID,
		Spec:         SpecHashOf(spec),
		Platform:     spec.Platform.Name,
		System:       spec.Sys.Name,
		Servers:      spec.Servers,
		Steps:        len(res.Steps),
		Wall:         out.Wall,
		EnergiesHash: archive.HashFloats(res.Energies()),
		FinalEnergy:  res.FinalEnergy(),
		Par:          b.ParComp,
		Seq:          b.SeqComp,
		Comm:         b.Comm,
		Sync:         b.Sync,
		Idle:         b.Idle,
		Respawns:     res.Respawns,
		Recoveries:   res.Recoveries,
		Faults:       out.FaultStats.Total(),
		Chaos:        spec.Faults != nil || spec.Opts.Kills != nil,

		LoDMacroPhases:    res.LoDMacroPhases,
		LoDFallbackPhases: res.LoDFallbackPhases,
	}
	if o := spec.Oracle; o != nil {
		sum.OracleWindows = o.Windows()
		sum.OracleAnomalies = o.Anomalies()
		sum.Residuals = o.ResidualMeans()
	}
	return sum
}

// SpecHashOf derives the canonical spec hash of a run configuration — the
// grouping key cross-run queries and the regression watchdog compare
// under.  It covers everything that changes the physics or the timing:
// platform; system name, size (every -scale shares one name) and start
// coordinates; fleet and steps; where in a trajectory the run starts
// (a checkpoint resume is not a fresh run of the same length); every
// md.Options field that steers the engine; whether a kill schedule is
// set; the fault plan.  It covers nothing environmental: hooks, sinks,
// timeouts and the level of detail leave both untouched.
// TestSpecHashCoversEveryOption holds md.Options to that split.
func SpecHashOf(spec RunSpec) string {
	o := spec.Opts
	faults := "none"
	if spec.Faults != nil {
		faults = fmt.Sprintf("%+v", *spec.Faults)
	}
	return archive.HashStrings(
		spec.Platform.Name,
		spec.Sys.Name,
		fmt.Sprintln(spec.Sys.N, spec.Sys.NSolute, spec.Servers, spec.Steps),
		archive.HashFloats(spec.Sys.Pos),
		fmt.Sprintln(o.StartStep, o.InitTemperature),
		archive.HashFloats(o.StartVelocities),
		fmt.Sprintln(o.Cutoff, orOne(o.UpdateEvery), o.Strategy, o.Seed, o.CellList, o.Accounting),
		fmt.Sprintln(o.Minimize, o.StepSize, o.GradTol, o.Dt, o.Thermostat, o.ThermostatTau),
		fmt.Sprintln(o.FaultTolerant, o.SelfHeal, o.MaxRespawns, o.Kills != nil),
		faults,
	)
}

// OracleConfig arms the model oracle for a run: the platform's machine
// for the run's system, with its cut-off, update interval and fleet,
// checked every window steps.
func OracleConfig(spec RunSpec, window int) oracle.Config {
	return oracle.Config{
		Machine: core.MachineFor(spec.Platform, spec.Sys.Gamma()), Sys: spec.Sys,
		Cutoff: spec.Opts.Cutoff, UpdateEvery: spec.Opts.UpdateEvery, Servers: spec.Servers, Window: window,
	}
}

// MeasurementOf converts a run outcome into a calibration measurement,
// carrying the engine's exact check and active-pair counts as regressors.
func MeasurementOf(spec RunSpec, out RunOutcome) core.Measurement {
	app := core.AppFor(spec.Sys, spec.Opts.Cutoff, orOne(spec.Opts.UpdateEvery), spec.Servers, spec.Steps)
	var checks, active float64
	for _, st := range out.Result.Steps {
		checks += float64(st.PairChecks)
		active += float64(st.ActivePairs)
	}
	b := out.Breakdown
	return core.Measurement{
		App:         app,
		Par:         b.ParComp,
		Seq:         b.SeqComp,
		Comm:        b.Comm,
		Sync:        b.Sync,
		Idle:        b.Idle,
		TotalChecks: checks,
		TotalActive: active,
	}
}

func orOne(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// paperSize is one of the paper's problem sizes: its complex's solute
// atoms, waters and generator seed, and its full-scale constructor.
type paperSize struct {
	name          string
	atoms, waters int
	seed          int64
	full          func() *molecule.System
}

var paperSizes = []paperSize{
	{"small", 460, 840, 44, molecule.SmallComplex},
	{"medium", 1575, 2714, 42, molecule.Antennapedia},
	{"large", 1655, 4634, 43, molecule.LFB},
}

// at generates the complex at scale: the paper's own at scale >= 1, a
// proportionally reduced one below (at least 8 solute atoms and 8
// waters).
func (p paperSize) at(scale float64) *molecule.System {
	if scale >= 1 {
		return p.full()
	}
	return molecule.Generate(molecule.Config{
		Name:        p.name + " (scaled)",
		SoluteAtoms: max(int(float64(p.atoms)*scale), 8),
		Waters:      max(int(float64(p.waters)*scale), 8),
		Seed:        p.seed, Interleave: true,
	})
}

// Size returns one of the paper's problem sizes — "small", "medium" or
// "large" — at scale, generating that complex alone: the same system
// Sizes(scale)[name] holds.
func Size(name string, scale float64) (*molecule.System, error) {
	for _, p := range paperSizes {
		if p.name == name {
			return p.at(scale), nil
		}
	}
	return nil, fmt.Errorf("harness: unknown size %q: want small, medium or large", name)
}

// Sizes returns the paper's three problem sizes, or proportionally
// reduced versions when scale < 1 (for fast test and bench runs; the
// model and all qualitative results are size-stable).  A caller that
// needs one size asks Size for it and generates only that one.
func Sizes(scale float64) map[string]*molecule.System {
	set := make(map[string]*molecule.System, len(paperSizes))
	for _, p := range paperSizes {
		set[p.name] = p.at(scale)
	}
	return set
}

// NoCutoff is the paper's ineffective 60 A cut-off; on the ~50 A boxes it
// excludes nothing but still pays the distance checks.
const NoCutoff = 60.0

// EffectiveCutoff is the paper's 10 A cut-off.
const EffectiveCutoff = 10.0
