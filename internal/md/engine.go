// Package md implements Opal, the molecular-dynamics / energy-refinement
// code of the paper, in both its serial form (Opal 2.6) and its parallel
// client-server form over the Sciddle RPC middleware: one client evaluates
// the bonded interactions, integrates the equations of motion and
// coordinates the work, while p servers share the non-bonded (Van der
// Waals + Coulomb) pair computation through periodically updated cut-off
// pair lists (Section 2.1 of the paper).
package md

import (
	"errors"
	"fmt"
	"math"
	"time"

	"opalperf/internal/forcefield"
	"opalperf/internal/hpm"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// Boltzmann constant in kcal/(mol K).
const kB = 0.0019872041

// kcal/mol to amu A^2/ps^2.
const energyToMD = 418.4

// Options configure a simulation run.
type Options struct {
	// Cutoff is the pair cut-off radius in Angstrom; 0 disables the
	// radius test entirely.  The paper's experiments use 10 A (effective)
	// versus 60 A (ineffective on a ~50 A box).
	Cutoff float64
	// UpdateEvery is the number of steps between pair-list updates: 1 is
	// the paper's "full update", 10 its "partial update".  The model's u
	// parameter is 1/UpdateEvery.
	UpdateEvery int
	// Strategy selects the pair-distribution scheme (default LCG, the
	// pseudo-random strategy of the original Opal).
	Strategy pairlist.Strategy
	// Seed perturbs the pseudo-random pair distribution.
	Seed int64
	// Accounting enables the barrier-separated timing mode the paper
	// added to Sciddle (Section 3.3).
	Accounting bool
	// Minimize selects normalized steepest-descent energy refinement
	// instead of leapfrog dynamics.
	Minimize bool
	// Dt is the dynamics time step in ps (default 0.001).
	Dt float64
	// StepSize is the minimizer displacement per step in Angstrom
	// (default 0.02).
	StepSize float64
	// AfterInit, when set, runs on the client after the servers are
	// initialized and before the first simulation step — the hook the
	// experiment harness uses to reset trace recorders so that timings
	// cover the simulation phase only, like the paper's measurements.
	AfterInit func()
	// InitTemperature, when positive, draws Maxwell-Boltzmann velocities
	// at that temperature (K) before the first step.
	InitTemperature float64
	// Thermostat, when positive, couples the dynamics to that target
	// temperature with a Berendsen weak-coupling rescale each step.
	Thermostat float64
	// ThermostatTau is the coupling time constant in ps (default 0.1).
	ThermostatTau float64
	// Trajectory, when set, receives the coordinates of every step.
	Trajectory *TrajectoryWriter
	// StartVelocities, when non-nil, seeds the velocities (checkpoint
	// resume); it overrides InitTemperature.
	StartVelocities []float64
	// CellList switches the pair-list update from the O(n^2) all-pairs
	// scan to spatial cells of one cut-off radius (O(n*ntilde)) — the
	// future-work optimization for the update-dominated cut-off runs.
	// Ignored without an effective cut-off.
	CellList bool
	// GradTol, when positive with Minimize, stops the refinement early
	// once the infinity norm of the gradient falls below it
	// (kcal/mol/A); Result.Converged records whether it was reached.
	GradTol float64
	// FaultTolerant enables graceful degradation of the parallel engine:
	// every RPC phase runs under a call timeout, and when a server stops
	// answering the client drops it, re-initializes the survivors with
	// the dead server's pair rows redistributed (the pseudo-random
	// distribution recomputed over the smaller server set), refreshes
	// their pair lists and redoes the failed phase.  The whole window is
	// attributed as recovery (Result.RecoverySeconds; vm.SegRecovery on
	// the simulated fabric, which records timelines).  Requires
	// Accounting off — a retried call would desynchronize the phase
	// barriers.  Only effective on the network fabric, whose receive
	// deadlines are real; on the simulated fabric replies cannot be lost
	// and the options are inert.
	FaultTolerant bool
	// CallTimeout bounds each reply wait in fault-tolerant mode (default
	// 250ms); CallRetries is the number of idempotent resends before a
	// server is declared dead.  Choose CallTimeout well above the slowest
	// honest phase: a false positive orphans a healthy server.
	CallTimeout time.Duration
	CallRetries int
	// ServerQuit, when non-nil, hands each spawned server a cooperative
	// kill switch keyed by instance index: closing the returned channel
	// makes that server exit between requests.  Chaos tests use it to
	// kill live servers; nil (and nil returns) mean servers run until the
	// shutdown handshake.  Takes effect only when the servers run the
	// closure passed to Spawn: on the simulated fabric, or in a network
	// session without a remote spawn host.
	ServerQuit func(instance int) <-chan struct{}
	// AfterStep, when set, runs on the client after every completed step
	// — chaos tests use it to trigger failures at a deterministic point.
	AfterStep func(step int, info StepInfo)
	// SelfHeal upgrades graceful degradation to self-healing: instead of
	// dropping a dead server, the parallel client asks the supervisor to
	// respawn a replacement task, re-initializes it with the dead server's
	// rank over the full configured distribution (the rank-explicit init
	// RPC), and rebuilds its pair list from the coordinates of the last
	// pair-list update boundary — so the restored fleet computes the exact
	// same partial sums as an undisturbed run and healed physics is
	// bit-identical.  Deaths are detected through FaultTolerant call
	// timeouts on the network fabric, or declared by an administrative
	// Kills schedule on the simulated one.
	// Requires Accounting off, like FaultTolerant.
	SelfHeal bool
	// MaxRespawns bounds the total replacements a self-healing run may
	// spawn (<= 0: unlimited).  Once the budget is exhausted, further
	// deaths degrade gracefully as without SelfHeal.
	MaxRespawns int
	// Cancel, when non-nil, is polled on the client after every completed
	// step, after any checkpoint due at that boundary has been captured.
	// Returning a non-nil cause stops the run there: the engine performs
	// its normal shutdown handshake and returns a *CancelError wrapping
	// the cause (errors.Is(err, ErrCanceled) reports true).  This is the
	// cooperative cancellation hook the control plane's worker pool uses
	// for per-job deadlines and graceful drain — a drain first requests a
	// checkpoint via CheckpointAt, then cancels once the sink has it.
	Cancel func() error
	// Kills, with SelfHeal, is the administrative kill schedule: before
	// the phases of step s, every server rank in Kills(s) is declared
	// dead and healed without any timeout — the deterministic way to
	// exercise the respawn path on the simulated fabric, where replies
	// cannot be lost and a call timeout would never fire.  The
	// victim task keeps running idle until the shutdown handshake stops
	// it.  Requires SelfHeal.
	Kills func(step int) []int
	// CheckpointEvery, with CheckpointSink, enables periodic in-run
	// checkpointing: a snapshot is captured at the first pair-list update
	// boundary at or after every CheckpointEvery completed steps, so
	// every periodic checkpoint resumes bit-exactly (Checkpoint.Resume's
	// contract).  Both fields must be set together.
	CheckpointEvery int
	// CheckpointSink receives each periodic checkpoint; its system and
	// velocity slices are fresh copies the sink may retain.  A sink error
	// aborts the run.
	CheckpointSink func(*Checkpoint) error
	// CheckpointAt, with CheckpointSink, adds one-shot checkpoint requests
	// on top of (or instead of) the periodic CheckpointEvery schedule:
	// when CheckpointAt reports true for a completed step — numbered
	// absolutely, like the steps the sink sees — a snapshot is captured at
	// the first pair-list update boundary at or after it, the same
	// boundary rule that makes periodic captures bit-exact to resume
	// from.  The scenario engine compiles timed `checkpoint` events into
	// this hook.
	CheckpointAt func(step int) bool
	// StartStep is the absolute step number of the run's first step.
	// Checkpoint resumes set it so that periodic checkpoints captured in
	// a resumed run carry trajectory-absolute step numbers.
	StartStep int
	// LoD is the level of detail of the parallel engine's RPC phases (see
	// LoDMode).  The zero value, LoDAuto, macro-replays every eligible
	// phase on the client's coroutine — bit-identical physics and Stats,
	// an order of magnitude fewer kernel events — and runs the rest
	// fine-grained; LoDOff pins the fine-grained reference.
	LoD LoDMode
}

func (o Options) withDefaults() Options {
	if o.UpdateEvery <= 0 {
		o.UpdateEvery = 1
	}
	if o.Dt <= 0 {
		o.Dt = 0.001
	}
	if o.StepSize <= 0 {
		o.StepSize = 0.02
	}
	if o.FaultTolerant && o.CallTimeout <= 0 {
		o.CallTimeout = 250 * time.Millisecond
	}
	return o
}

// StepInfo is what Opal displays at the end of every simulation step:
// the energies and the temperature, pressure and volume of the complex.
type StepInfo struct {
	EVdw, ECoul, EBonded, ETotal  float64
	Kinetic                       float64
	Temperature, Pressure, Volume float64
	GradMax                       float64 // infinity norm of the gradient
	PairChecks, ActivePairs       int
	Updated                       bool
}

// Result summarizes a run.
type Result struct {
	Steps      []StepInfo
	FinalPos   []float64
	FinalVel   []float64
	ServerTIDs []int
	// InitSeconds and StepSeconds split the client's clock between the
	// amortized start-up (replicating global data) and the simulation
	// steps proper.
	InitSeconds float64
	StepSeconds float64
	// StartSeconds and EndSeconds are the absolute client times bounding
	// the simulation steps — the measurement window that excludes the
	// start-up and the shutdown handshake.  The engines report it to the
	// task's trace recorder as they reach each end (pvm.OpenWindow,
	// pvm.CloseWindow).
	StartSeconds float64
	EndSeconds   float64
	// Converged reports that the minimizer reached Options.GradTol
	// before exhausting its step budget.
	Converged bool
	// Recoveries counts server deaths the fault-tolerant client survived;
	// RecoverySeconds is the client time spent detecting them and
	// re-initializing the survivors; LostTIDs lists the dropped servers.
	Recoveries      int
	RecoverySeconds float64
	LostTIDs        []int
	// Respawns counts dead servers the self-healing supervisor replaced
	// (Options.SelfHeal); RespawnSeconds is the client time spent
	// detecting those deaths, respawning replacements and re-initializing
	// them — attributed to vm.SegRecovery on fabrics that record
	// timelines, like RecoverySeconds.
	Respawns       int
	RespawnSeconds float64
	// StartStep echoes Options.StartStep: the absolute step number of
	// Steps[0] within the overall trajectory (non-zero after a checkpoint
	// resume).
	StartStep int
	// LoDMacroPhases and LoDFallbackPhases count, for this run's
	// connection, the RPC phases replayed as analytic macro-events and
	// the phases that wanted macro replay but ran fine-grained (kill
	// windows, heal epochs, lost eligibility).  Both stay zero with
	// LoDOff, on a run that cannot macro-replay at all (real fabric,
	// active fault plane) and on the serial engine.
	LoDMacroPhases    int
	LoDFallbackPhases int
}

// FinalEnergy returns the total energy of the last step.
func (r *Result) FinalEnergy() float64 {
	if len(r.Steps) == 0 {
		return math.NaN()
	}
	return r.Steps[len(r.Steps)-1].ETotal
}

// Energies returns the total energy of every step, the series run digests
// hash and compare.
func (r *Result) Energies() []float64 {
	e := make([]float64, len(r.Steps))
	for i, st := range r.Steps {
		e[i] = st.ETotal
	}
	return e
}

// StitchRestart joins the two legs of a killed-and-restarted run into the
// result of the whole trajectory: the first leg's steps up to the absolute
// step resumedAt the second leg resumed from (0 when it replayed from the
// start), then the second leg's; final state, convergence and timing
// fields are the second leg's, and every recovery, respawn and LoD counter
// is summed over both legs.
func StitchRestart(first, second *Result, resumedAt int) *Result {
	r := *second
	r.StartStep = 0
	r.Steps = append(append([]StepInfo(nil), first.Steps[:resumedAt]...), second.Steps...)
	r.Recoveries += first.Recoveries
	r.RecoverySeconds += first.RecoverySeconds
	r.LostTIDs = append(append([]int(nil), first.LostTIDs...), second.LostTIDs...)
	r.Respawns += first.Respawns
	r.RespawnSeconds += first.RespawnSeconds
	r.LoDMacroPhases += first.LoDMacroPhases
	r.LoDFallbackPhases += first.LoDFallbackPhases
	return &r
}

// nbData is the replicated global data every server (and the serial
// engine) needs for the non-bonded computation: types, charges and the
// interaction parameter tables.  Its volume depends on the problem size
// and does not scale with the number of processors (Section 2.6).
type nbData struct {
	n, nsolute int
	types      []int
	charges    []float64
	lj         *forcefield.LJTable
	excl       *forcefield.Exclusions
	cutoff     float64
}

func newNBData(sys *molecule.System, cutoff float64) *nbData {
	return &nbData{
		n: sys.N, nsolute: sys.NSolute,
		types:   sys.Type,
		charges: sys.Charge,
		lj:      forcefield.BuildLJ(forcefield.DefaultLJ()),
		excl:    forcefield.BuildExclusions(sys),
		cutoff:  cutoff,
	}
}

// bytes estimates the replicated data volume (the global information of
// Section 2.6).
func (d *nbData) bytes() int {
	return 8*d.n /*types*/ + 8*d.n /*charges*/ +
		16*d.lj.NTypes*d.lj.NTypes + 16*d.excl.Len()
}

// updateList refreshes one active pair list from fresh coordinates, by
// the cell walk when cells is set and by the all-pairs routine otherwise.
// The all-pairs routine is counted, and how often it had to rebuild the
// list's retained candidates, so a run can report its reuse ratio.
func (d *nbData) updateList(list *pairlist.List, pos []float64, box float64, cells bool) (checks int, ops hpm.Ops) {
	if cells {
		return list.UpdateCells(pos, d.cutoff, box, d.excl)
	}
	before := list.Rebuilds
	checks, ops = list.Update(pos, d.cutoff, d.excl)
	telemetry.PairlistUpdates.Inc()
	telemetry.PairlistRebuilds.Add(uint64(list.Rebuilds - before))
	return checks, ops
}

// evalList computes the partial non-bonded energies over one active pair
// list, accumulating dV/dr into grad, and returns the op count incurred.
// Charged pairs (both partners charged — solute-solute pairs) cost the
// full Lennard-Jones + Coulomb evaluation; pairs involving an uncharged
// single-unit water skip the Coulomb square root and are cheaper.
func (d *nbData) evalList(pos []float64, list *pairlist.List, grad []float64) (evdw, ecoul float64, ops hpm.Ops, npairs int) {
	var nCharged, nPlain int
	for r, i := range list.Rows {
		row := list.Pairs[r]
		if len(row) == 0 {
			continue
		}
		c12Row, c6Row := d.lj.Row(d.types[i])
		var nc, np int
		evdw, ecoul, nc, np = forcefield.PairEnergyRow(
			pos, i, row, d.types, c12Row, c6Row,
			d.charges[i], d.charges, grad, evdw, ecoul)
		nCharged += nc
		nPlain += np
	}
	ops = forcefield.PairEnergyOps.Times(float64(nCharged)).
		Plus(forcefield.PairEnergyLJOps.Times(float64(nPlain)))
	return evdw, ecoul, ops, list.NActive
}

// clientState is the per-run state of the Opal client: master coordinates,
// velocities and the integration machinery.
type clientState struct {
	sys  *molecule.System
	opts Options
	pos  []float64
	vel  []float64
}

func newClientState(sys *molecule.System, opts Options) *clientState {
	c := &clientState{
		sys:  sys,
		opts: opts,
		pos:  append([]float64(nil), sys.Pos...),
		vel:  make([]float64, 3*sys.N),
	}
	if opts.StartVelocities != nil {
		copy(c.vel, opts.StartVelocities)
	} else if opts.InitTemperature > 0 && !opts.Minimize {
		initVelocities(sys, c.vel, opts.InitTemperature, opts.Seed)
	}
	return c
}

// finishStep performs the client's sequential work of one step given the
// gathered non-bonded results: bonded terms, integration and the energy /
// temperature / pressure / volume bookkeeping.  It charges the op count
// to the task and returns the step record.
func (c *clientState) finishStep(t pvm.Task, evdw, ecoul float64, grad []float64) StepInfo {
	ebonded, ops := forcefield.BondedEnergy(c.sys, c.pos, grad)
	n := c.sys.N

	var kinetic, virial float64
	gmax := 0.0
	for _, g := range grad {
		if a := math.Abs(g); a > gmax {
			gmax = a
		}
	}
	if c.opts.Minimize {
		// Normalized steepest descent: move StepSize along -grad/|grad|_inf.
		if gmax > 0 {
			scale := c.opts.StepSize / gmax
			for i := range c.pos {
				c.pos[i] -= scale * grad[i]
			}
		}
	} else {
		// Leapfrog: kick then drift.
		dt := c.opts.Dt
		for i := 0; i < n; i++ {
			m := c.sys.Mass[i]
			f := -energyToMD / m * dt
			c.vel[3*i] += f * grad[3*i]
			c.vel[3*i+1] += f * grad[3*i+1]
			c.vel[3*i+2] += f * grad[3*i+2]
			c.pos[3*i] += c.vel[3*i] * dt
			c.pos[3*i+1] += c.vel[3*i+1] * dt
			c.pos[3*i+2] += c.vel[3*i+2] * dt
		}
	}
	for i := 0; i < n; i++ {
		v2 := c.vel[3*i]*c.vel[3*i] + c.vel[3*i+1]*c.vel[3*i+1] + c.vel[3*i+2]*c.vel[3*i+2]
		kinetic += 0.5 * c.sys.Mass[i] * v2 / energyToMD
		virial += c.pos[3*i]*grad[3*i] + c.pos[3*i+1]*grad[3*i+1] + c.pos[3*i+2]*grad[3*i+2]
	}
	vol := c.sys.Box * c.sys.Box * c.sys.Box
	temp := 2 * kinetic / (3 * float64(n) * kB)
	pressure := (2*kinetic - virial) / (3 * vol)

	if !c.opts.Minimize && c.opts.Thermostat > 0 {
		applyThermostat(c.vel, temp, c.opts.Thermostat, c.opts.Dt, c.opts.ThermostatTau)
		ops = ops.Plus(hpm.Ops{Mul: float64(3 * n), Add: 4})
	}

	ops = ops.Plus(forcefield.IntegrateOps.Times(float64(n)))
	t.Charge("seq", ops)

	return StepInfo{
		EVdw: evdw, ECoul: ecoul, EBonded: ebonded,
		ETotal:      evdw + ecoul + ebonded,
		Kinetic:     kinetic,
		Temperature: temp, Pressure: pressure, Volume: vol,
		GradMax: gmax,
	}
}

// ErrCanceled marks a run stopped by Options.Cancel; errors.Is reports
// it for every *CancelError the engines return.
var ErrCanceled = errors.New("md: run canceled")

// CancelError is the error a cooperatively canceled run returns.  Step
// is the absolute number of completed steps (StartStep included) when
// the cancellation took effect; Cause is what Options.Cancel returned.
type CancelError struct {
	Step  int
	Cause error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("md: run canceled after step %d: %v", e.Step, e.Cause)
}

// Unwrap exposes the cancellation cause to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is reports true for ErrCanceled, so callers can test the class without
// knowing the cause.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// validateRun checks run arguments shared by the engines.
func validateRun(sys *molecule.System, steps int) error {
	if steps <= 0 {
		return fmt.Errorf("md: steps must be positive, have %d", steps)
	}
	return sys.Validate()
}

// validateCheckpointing checks the periodic-checkpointing option pair,
// shared by both engines.
func (o Options) validateCheckpointing() error {
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("md: CheckpointEvery must be non-negative, have %d", o.CheckpointEvery)
	}
	if (o.CheckpointEvery > 0 || o.CheckpointAt != nil) != (o.CheckpointSink != nil) {
		return fmt.Errorf("md: CheckpointEvery/CheckpointAt and CheckpointSink must be set together")
	}
	return nil
}
