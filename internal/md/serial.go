package md

import (
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
	opts, err := opts.prepare(sys, steps)
	if err != nil {
		return nil, err
	}
	d := newNBData(sys, opts.Cutoff)
	c := newClientState(sys, opts)
	owners := pairlist.Owners(sys.N, 1, opts.Strategy, opts.Seed)
	list := pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))
	cells := opts.CellList && sys.CutoffEffective(opts.Cutoff)

	res := &Result{}
	err = drive(t, sys, opts, steps, c, res, func(step int, grad []float64) (evdw, ecoul float64, info StepInfo, err error) {
		if step%opts.UpdateEvery == 0 {
			updT0 := t.Now()
			checks, ops := d.updateList(list, c.pos, sys.Box, cells)
			t.SetWorkingSet(list.Bytes() + d.bytes() + 8*3*sys.N*3)
			t.Charge("update", ops)
			telemetry.MDUpdateSeconds.Observe(t.Now() - updT0)
			info.PairChecks = checks
			info.Updated = true
		}
		evdw, ecoul, ops, npairs := d.evalList(c.pos, list, grad)
		t.Charge("nbint", ops)
		info.ActivePairs = npairs
		return evdw, ecoul, info, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
