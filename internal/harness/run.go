// Package harness runs the paper's experiments end to end: instrumented
// Opal runs on simulated platforms, the factorial calibration suite of
// Section 2.3/2.5, the execution-time breakdowns of Figures 1-2, the
// model-vs-measurement comparison of Figure 4, the cross-platform
// predictions of Figures 5-6 and the micro-benchmark tables.
package harness

import (
	"errors"
	"fmt"
	"time"

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
	// Cancel, when non-nil, is polled on the client at every completed
	// step (after any checkpoint due at that boundary was captured); a
	// non-nil cause stops the run cleanly and Run returns an error for
	// which errors.Is(err, md.ErrCanceled) holds, wrapping the cause.
	// The control plane's workers use it for graceful drain.
	Cancel func() error
	// Deadline, when non-zero, cancels the run at the first step boundary
	// past that wall-clock instant (composed with Cancel).  Cancellation
	// is cooperative — the virtual-time kernel is only interruptible
	// between steps — so the deadline is enforced with one step of slack.
	Deadline time.Time
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
	// nil, the run records into a window recorder, which sums the
	// measurement window as it goes and keeps no intervals — or, with an
	// Oracle armed, which reads windows mid-run, into a keeping one.  Like
	// every hook, it is not part of SpecHashOf.
	Recorder *trace.Recorder
}

// paperSpec is the paper's measured run — an energy minimization timed
// with barrier-separated accounting — as every figure, table and
// calibration case runs it.
func paperSpec(pl *platform.Platform, sys *molecule.System, cutoff float64, updateEvery, servers, steps int) RunSpec {
	return RunSpec{
		Platform: pl, Sys: sys, Servers: servers, Steps: steps,
		Opts: md.Options{Cutoff: cutoff, UpdateEvery: updateEvery, Accounting: true, Minimize: true},
	}
}

// ErrDeadline is the cancellation cause of a run stopped by
// RunSpec.Deadline.
var ErrDeadline = errors.New("harness: run deadline exceeded")

// RunOutcome is the measured outcome of a run.
type RunOutcome struct {
	Breakdown trace.Breakdown
	Result    *md.Result
	// Wall is the virtual time of the simulation steps (excluding the
	// amortized initialization, as in the paper's measurements).
	Wall float64
	// Recorder is the run's recorder: RunSpec.Recorder with its full
	// classified timelines when one was passed, else one that answers the
	// run's own window (Breakdown) and keeps no intervals.
	Recorder *trace.Recorder
	// FaultStats counts the faults injected during the run (zero value
	// when RunSpec.Faults was nil).
	FaultStats fault.Stats
}

// Run executes one run and aggregates its execution-time breakdown.
// Timing starts after server initialization, matching the paper's
// measurement of the simulation phase.
func Run(spec RunSpec) (RunOutcome, error) {
	rec := spec.Recorder
	if rec == nil && spec.Oracle != nil {
		rec = trace.NewRecorder() // the oracle reads windows mid-run
	} else if rec == nil {
		rec = trace.NewWindowRecorder()
	}
	sim := pvm.NewSimVM(spec.Platform, rec)
	telemetry.Emit("run_start", telemetry.F{
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
	if cancel := composeCancel(spec); cancel != nil {
		prev := opts.Cancel
		opts.Cancel = func() error {
			if prev != nil {
				if err := prev(); err != nil {
					return err
				}
			}
			return cancel()
		}
	}
	if every := telemetry.MatrixEmitEvery(); telemetry.MatrixEnabled() && every > 0 {
		// Periodic comm_matrix/rank_profile journal records; the final
		// state is emitted after the run regardless.
		prev := opts.AfterStep
		opts.AfterStep = func(step int, info md.StepInfo) {
			if prev != nil {
				prev(step, info)
			}
			if (step+1)%every == 0 {
				telemetry.EmitMatrix()
			}
		}
	}
	sim.SpawnRoot("opal-client", func(t pvm.Task) {
		if spec.Oracle != nil {
			// The hooks run on the client goroutine while it holds the
			// execution token, so t.Now() is exact and race-free.
			o := spec.Oracle
			o.Attach(rec, 0, spec.Servers)
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
		telemetry.Emit("run_end", telemetry.F{"error": err.Error()})
		return RunOutcome{}, fmt.Errorf("harness: simulation: %w", err)
	}
	if runErr != nil {
		telemetry.Emit("run_end", telemetry.F{"error": runErr.Error()})
		return RunOutcome{}, runErr
	}
	out := RunOutcome{Result: res, Wall: res.StepSeconds, Recorder: rec}
	if spec.Oracle != nil {
		spec.Oracle.Finish(res.EndSeconds)
	}
	telemetry.EmitMatrix()
	telemetry.Emit("run_end", telemetry.F{
		"wall": out.Wall, "steps": len(res.Steps),
		"respawns": res.Respawns, "recoveries": res.Recoveries,
	})
	if plan != nil {
		out.FaultStats = plan.Stats()
	}
	// Aggregate only the simulation window, excluding the amortized
	// initialization and the shutdown handshake: the window the engine
	// reported, which the recorder summed as it recorded.
	out.Breakdown = trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs,
		res.StartSeconds, res.EndSeconds, out.Wall)
	if spec.Archive != nil {
		// Summary loss must not fail a completed run: the physics are
		// done, the warehouse can be refilled by the next run.
		_ = spec.Archive.Put(SummaryOf(spec, out))
	}
	return out, nil
}

// SummaryOf distills a run outcome into its archive digest.
func SummaryOf(spec RunSpec, out RunOutcome) archive.RunSummary {
	res := out.Result
	b := out.Breakdown
	sum := archive.RunSummary{
		Run:          telemetry.Run(),
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

// composeCancel merges the spec's Cancel hook and Deadline into one
// cooperative cancellation predicate (nil when neither is set).
func composeCancel(spec RunSpec) func() error {
	cancel := spec.Cancel
	if spec.Deadline.IsZero() {
		return cancel
	}
	deadline := spec.Deadline
	return func() error {
		if cancel != nil {
			if err := cancel(); err != nil {
				return err
			}
		}
		if time.Now().After(deadline) {
			return ErrDeadline
		}
		return nil
	}
}

func orOne(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// Sizes returns the paper's three problem sizes, or proportionally
// reduced versions when scale < 1 (for fast test and bench runs; the
// model and all qualitative results are size-stable).
func Sizes(scale float64) map[string]*molecule.System {
	if scale >= 1 {
		return map[string]*molecule.System{
			"small":  molecule.SmallComplex(),
			"medium": molecule.Antennapedia(),
			"large":  molecule.LFB(),
		}
	}
	gen := func(name string, atoms, waters int, seed int64) *molecule.System {
		a := int(float64(atoms) * scale)
		w := int(float64(waters) * scale)
		if a < 8 {
			a = 8
		}
		if w < 8 {
			w = 8
		}
		return molecule.Generate(molecule.Config{
			Name: name, SoluteAtoms: a, Waters: w, Seed: seed, Interleave: true,
		})
	}
	return map[string]*molecule.System{
		"small":  gen("small (scaled)", 460, 840, 44),
		"medium": gen("medium (scaled)", 1575, 2714, 42),
		"large":  gen("large (scaled)", 1655, 4634, 43),
	}
}

// NoCutoff is the paper's ineffective 60 A cut-off; on the ~50 A boxes it
// excludes nothing but still pays the distance checks.
const NoCutoff = 60.0

// EffectiveCutoff is the paper's 10 A cut-off.
const EffectiveCutoff = 10.0
