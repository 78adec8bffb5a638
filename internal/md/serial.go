package md

import (
	"fmt"

	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// RunSerial executes the single-processor Opal 2.6: one task performs the
// list updates, the non-bonded evaluation, the bonded terms and the
// integration.  It runs on either PVM fabric; on the simulated fabric the
// task's virtual clock yields the serial execution time of the chosen
// platform.
func RunSerial(t pvm.Task, sys *molecule.System, opts Options, steps int) (*Result, error) {
	opts = opts.withDefaults()
	if err := validateRun(sys, steps); err != nil {
		return nil, err
	}
	if err := opts.validateCheckpointing(); err != nil {
		return nil, err
	}
	d := newNBData(sys, opts.Cutoff)
	c := newClientState(sys, opts)
	owners := pairlist.Owners(sys.N, 1, opts.Strategy, opts.Seed)
	list := pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))

	res := &Result{StartStep: opts.StartStep}
	t0 := t.Now()
	res.InitSeconds = t0
	pvm.OpenWindow(t, t0)

	grad := make([]float64, 3*sys.N)
	ckpt := newCkptSched(opts)
	for step := 0; step < steps; step++ {
		stepT0 := t.Now()
		info := StepInfo{}
		if step%opts.UpdateEvery == 0 {
			updT0 := t.Now()
			checks, ops := d.updateList(list, c.pos, sys.Box, opts.CellList && sys.CutoffEffective(opts.Cutoff))
			t.SetWorkingSet(list.Bytes() + d.bytes() + 8*3*sys.N*3)
			t.Charge("update", ops)
			telemetry.MDUpdateSeconds.Observe(t.Now() - updT0)
			info.PairChecks = checks
			info.Updated = true
		}
		for i := range grad {
			grad[i] = 0
		}
		evdw, ecoul, ops, npairs := d.evalList(c.pos, list, grad)
		t.Charge("nbint", ops)
		fin := c.finishStep(t, evdw, ecoul, grad)
		fin.PairChecks = info.PairChecks
		fin.Updated = info.Updated
		fin.ActivePairs = npairs
		if opts.Trajectory != nil {
			if err := opts.Trajectory.Frame(step, fin.ETotal, c.pos); err != nil {
				return nil, fmt.Errorf("md: trajectory: %w", err)
			}
		}
		res.Steps = append(res.Steps, fin)
		telemetry.MDSteps.Add(1)
		telemetry.MDStepSeconds.Observe(t.Now() - stepT0)
		if ckpt.due(step + 1) {
			ckT0 := t.Now()
			if err := opts.CheckpointSink(checkpointAt(sys, c.pos, c.vel, opts.StartStep+step+1)); err != nil {
				return nil, fmt.Errorf("md: checkpoint sink: %w", err)
			}
			telemetry.MDCheckpoints.Add(1)
			telemetry.MDCheckpointSecs.Observe(t.Now() - ckT0)
			telemetry.Emit("checkpoint", telemetry.F{"step": opts.StartStep + step + 1})
		}
		if opts.Cancel != nil {
			if cerr := opts.Cancel(); cerr != nil {
				telemetry.Emit("run_canceled", telemetry.F{
					"step": opts.StartStep + step + 1, "cause": cerr.Error(),
				})
				return nil, &CancelError{Step: opts.StartStep + step + 1, Cause: cerr}
			}
		}
		if opts.Minimize && opts.GradTol > 0 && fin.GradMax < opts.GradTol {
			res.Converged = true
			break
		}
	}
	res.StartSeconds = t0
	res.EndSeconds = t.Now()
	pvm.CloseWindow(t, res.EndSeconds)
	res.StepSeconds = res.EndSeconds - t0
	res.FinalPos = append([]float64(nil), c.pos...)
	res.FinalVel = append([]float64(nil), c.vel...)
	return res, nil
}
