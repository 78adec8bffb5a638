package md

import (
	"errors"
	"fmt"

	"opalperf/internal/forcefield"
	"opalperf/internal/md/opalrpc"
	"opalperf/internal/molecule"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
	"opalperf/internal/supervise"
	"opalperf/internal/telemetry"
)

// errAdminKill marks a server death declared by an administrative kill
// schedule (Options.Kills) rather than detected by a call timeout.
var errAdminKill = errors.New("administratively killed")

// RunParallel executes the parallel Opal on the calling task (the client)
// with nservers spawned computation servers, following the client-server
// replicated-data design of Section 2.1: the client replicates the global
// interaction data once, then per step ships coordinates, gathers partial
// energies and gradients, evaluates the bonded terms and integrates.
func RunParallel(t pvm.Task, sys *molecule.System, opts Options, nservers, steps int) (*Result, error) {
	opts = opts.withDefaults()
	if err := validateRun(sys, steps); err != nil {
		return nil, err
	}
	if nservers <= 0 {
		return nil, fmt.Errorf("md: need at least one server, have %d", nservers)
	}

	accounting := opts.Accounting
	ft := opts.FaultTolerant
	if ft && accounting {
		return nil, fmt.Errorf("md: fault tolerance requires Accounting off (a retried call would desynchronize the phase barriers)")
	}
	if opts.SelfHeal && accounting {
		return nil, fmt.Errorf("md: self-healing requires Accounting off (heal-time calls bypass the phase barriers)")
	}
	if opts.Kills != nil && !opts.SelfHeal {
		return nil, fmt.Errorf("md: Kills is an administrative kill schedule for self-healing runs; set SelfHeal")
	}
	if err := opts.validateCheckpointing(); err != nil {
		return nil, err
	}
	parties := nservers + 1
	// The services are constructed client-side before the spawn: the
	// spawned Serve loops and, when the run can macro-replay, the
	// in-process dispatchers share the same handler objects (see lod.go).
	svcs := make([]*sciddle.Service, nservers)
	for i := range svcs {
		svcs[i] = newOpalService()
	}
	tids := t.Spawn("opal-server", nservers, func(st pvm.Task) {
		var quit <-chan struct{}
		if opts.ServerQuit != nil {
			quit = opts.ServerQuit(st.Instance())
		}
		sciddle.Serve(st, svcs[st.Instance()],
			sciddle.ServeOptions{Accounting: accounting, Parties: parties, Quit: quit})
	})
	lod := opts.LoD == LoDAuto && pvm.MacroCapable(t)
	if lod {
		for i, tid := range tids {
			registerDirect(t, tid, svcs[i])
		}
	}
	// Pin the comm-matrix rank assignment to the MD topology: the client
	// is rank 0, server i is rank i+1.  A replacement server inherits the
	// dead rank (see healFrom), so its traffic lands in the same
	// row/column across a heal.
	telemetry.MapRank(t.TID(), 0)
	for i, tid := range tids {
		telemetry.MapRank(tid, i+1)
	}
	conn := sciddle.Connect(t, tids)
	conn.SetAccounting(accounting)
	if ft {
		conn.SetCallTimeout(opts.CallTimeout, opts.CallRetries)
	}
	client := opalrpc.NewOpalClient(conn)

	// The self-healing supervisor spawns rank-inheriting replacement
	// servers.  The k-th replacement's kill switch is keyed past the
	// original fleet (nservers + k): every singleton Spawn numbers its
	// task from zero, so Instance() cannot distinguish replacements.
	var sup *supervise.Supervisor
	if opts.SelfHeal {
		sup = supervise.New(supervise.Options{
			Width:       nservers,
			MaxRespawns: opts.MaxRespawns,
			Spawn: func(k int) int {
				svc := newOpalService()
				rtids := t.Spawn("opal-server", 1, func(st pvm.Task) {
					var quit <-chan struct{}
					if opts.ServerQuit != nil {
						quit = opts.ServerQuit(nservers + k)
					}
					sciddle.Serve(st, svc, sciddle.ServeOptions{Parties: parties, Quit: quit})
				})
				if lod {
					registerDirect(t, rtids[0], svc)
				}
				return rtids[0]
			},
		})
	}

	// Replicate the global data (amortized start-up).
	d := newNBData(sys, opts.Cutoff)
	types := make([]int64, sys.N)
	kinds := make([]int64, sys.N)
	for i := 0; i < sys.N; i++ {
		types[i] = int64(sys.Type[i])
		kinds[i] = int64(sys.Kind[i])
	}
	excl := d.excl.Keys()
	cell := 0
	if opts.CellList && sys.CutoffEffective(opts.Cutoff) {
		cell = 1
	}
	// initServer (re-)initializes the server at index rank as one of nsrv.
	initServer := func(rank, nsrv int) error {
		return client.Init(rank, sys.N, sys.NSolute, kinds, types,
			sys.Charge, d.lj.C12, d.lj.C6, excl, opts.Cutoff, sys.Box,
			cell, int(opts.Strategy), int(opts.Seed), rank, nsrv)
	}
	// The init phase runs before level of detail is switched on: it is
	// start-up, always executed fine-grained and not counted as a LoD phase.
	if err := client.InitPhasePacked(func(i int, args *pvm.Buffer) {
		opalrpc.PackOpalInitArgsInto(args, sys.N, sys.NSolute, kinds, types,
			sys.Charge, d.lj.C12, d.lj.C6, excl, opts.Cutoff, sys.Box,
			cell, int(opts.Strategy), int(opts.Seed), i, nservers)
	}); err != nil {
		return nil, err
	}
	conn.SetLoD(lod)

	if opts.AfterInit != nil {
		opts.AfterInit()
	}
	res := &Result{ServerTIDs: tids, StartStep: opts.StartStep}
	t0 := t.Now()
	res.InitSeconds = t0
	pvm.OpenWindow(t, t0)

	c := newClientState(sys, opts)
	grad := make([]float64, 3*sys.N)
	t.SetWorkingSet(8 * 3 * sys.N * 4)
	// Steady-state reply slots and argument packers, kept across steps so
	// the per-step phases run without heap allocation (request buffers are
	// connection-owned, replies unpack in place into these slots).
	updateReps := make([]opalrpc.OpalUpdateReply, nservers)
	nbintReps := make([]opalrpc.OpalNbintReply, nservers)
	packUpdate := func(i int, args *pvm.Buffer) { opalrpc.PackOpalUpdateArgsInto(args, c.pos) }
	packNbint := func(i int, args *pvm.Buffer) { opalrpc.PackOpalNbintArgsInto(args, c.pos) }

	// boundaryPos mirrors the master coordinates as of the last pair-list
	// update boundary.  The recovery and heal paths rebuild pair lists
	// from it — not from the current coordinates — so a mid-interval
	// death cannot shift the active-pair epoch: with UpdateEvery > 1 a
	// replacement reproduces the dead server's exact list.
	trackBoundary := ft || sup != nil
	var boundaryPos []float64
	var packBoundary func(i int, args *pvm.Buffer)
	if trackBoundary {
		boundaryPos = append([]float64(nil), c.pos...)
		packBoundary = func(i int, args *pvm.Buffer) { opalrpc.PackOpalUpdateArgsInto(args, boundaryPos) }
	}

	// curStep tags journal events emitted from the recovery closures with
	// the step being executed (-1 while still initializing).
	curStep := -1

	// recoverFrom handles one detected server death in fault-tolerant
	// mode: drop the dead server, re-initialize the survivors with its
	// pair rows redistributed (the pseudo-random distribution recomputed
	// over the smaller server set), rebuild their lists from the last
	// update-boundary coordinates and attribute the whole window as
	// recovery.  Further deaths during recovery cascade through the loop.
	recoverFrom := func(se *sciddle.ServerError) error {
		start := t.Now()
		for {
			res.LostTIDs = append(res.LostTIDs, se.TID)
			conn.DropServer(se.Server)
			nsrv := conn.NumServers()
			if nsrv == 0 {
				return fmt.Errorf("md: all servers lost: %w", se)
			}
			err := func() error {
				for i := 0; i < nsrv; i++ {
					if err := initServer(i, nsrv); err != nil {
						return err
					}
				}
				// Re-initialized lists are empty; rebuild them from the
				// last update-boundary coordinates before any phase is
				// redone, preserving the active-pair epoch mid-interval.
				return client.UpdatePhaseInto(packBoundary, updateReps[:nsrv])
			}()
			if err == nil {
				break
			}
			next := (*sciddle.ServerError)(nil)
			if !errors.As(err, &next) {
				return err
			}
			se = next
		}
		end := t.Now()
		res.Recoveries++
		res.RecoverySeconds += end - start
		pvm.ReportRecovery(t, start, end)
		telemetry.Recoveries.Add(1)
		telemetry.Emit("recovery", telemetry.F{
			"step": curStep, "servers_left": conn.NumServers(), "seconds": end - start,
		})
		return nil
	}
	// healFrom handles one detected server death in self-healing mode:
	// the supervisor spawns a replacement that inherits the dead server's
	// rank in the full-width distribution, is re-initialized through the
	// rank-explicit init RPC, and rebuilds the dead server's exact pair
	// list from the last update-boundary coordinates — the restored fleet
	// computes bit-identical partial sums.  Deaths during healing cascade
	// through the loop; once the respawn budget runs out, the remaining
	// deaths fall back to graceful degradation.
	healFrom := func(se *sciddle.ServerError) error {
		start := t.Now()
		healed := false
		finishWindow := func() {
			end := t.Now()
			res.RespawnSeconds += end - start
			pvm.ReportRecovery(t, start, end)
		}
		for {
			newTID, ok := sup.OnDeath(se.Server, se.TID)
			if !ok {
				// Budget exhausted: account the healing done so far in
				// this window, then degrade for the present death.
				if healed {
					finishWindow()
				}
				return recoverFrom(se)
			}
			res.LostTIDs = append(res.LostTIDs, se.TID)
			conn.ReplaceServer(se.Server, newTID)
			res.ServerTIDs[se.Server] = newTID
			telemetry.MapRank(newTID, se.Server+1)
			res.Respawns++
			healed = true
			telemetry.Emit("respawn", telemetry.F{
				"rank": se.Server, "old_tid": se.TID, "new_tid": newTID, "step": curStep,
			})
			err := func() error {
				if err := initServer(se.Server, nservers); err != nil {
					return err
				}
				_, err := client.Update(se.Server, boundaryPos)
				return err
			}()
			if err == nil {
				break
			}
			next := (*sciddle.ServerError)(nil)
			if !errors.As(err, &next) {
				return err
			}
			se = next
		}
		sup.Healed()
		finishWindow()
		return nil
	}

	// runPhase executes one RPC phase, surviving server deaths when fault
	// tolerance is on.  phase must re-slice its reply slots on each
	// attempt: recovery may shrink the server set.
	runPhase := func(phase func() error) error {
		for {
			err := phase()
			if err == nil {
				return nil
			}
			se := (*sciddle.ServerError)(nil)
			if !ft || !errors.As(err, &se) {
				return err
			}
			var rerr error
			if sup != nil {
				rerr = healFrom(se)
			} else {
				rerr = recoverFrom(se)
			}
			if rerr != nil {
				return rerr
			}
		}
	}

	// Built once, outside the step loop, so a step allocates no closure.
	updatePhase := func() error {
		return client.UpdatePhaseInto(packUpdate, updateReps[:conn.NumServers()])
	}
	nbintPhase := func() error {
		return client.NbintPhaseInto(packNbint, nbintReps[:conn.NumServers()])
	}

	ckpt := newCkptSched(opts)
	for step := 0; step < steps; step++ {
		curStep = step
		stepT0 := t.Now()
		// Administrative kills: the schedule declares these ranks dead
		// before the step's phases; the supervisor heals each one.  The
		// victim task idles until the shutdown handshake stops it.
		if opts.Kills != nil {
			kills := opts.Kills(step)
			if len(kills) > 0 {
				// A kill window needs event-level detail: the victim's
				// last parked state, the replacement's spawn and the heal
				// RPCs all run fine-grained, and so do this step's phases.
				conn.SuspendLoD()
			}
			for _, rank := range kills {
				if rank < 0 || rank >= conn.NumServers() {
					continue
				}
				se := &sciddle.ServerError{Server: rank, TID: conn.Server(rank), Err: errAdminKill}
				telemetry.FaultsInjected.With("admin_kill").Add(1)
				telemetry.Emit("fault_injected", telemetry.F{
					"kind": "admin_kill", "rank": rank, "tid": se.TID, "step": step,
				})
				if err := healFrom(se); err != nil {
					return nil, err
				}
			}
		}
		info := StepInfo{}
		if step%opts.UpdateEvery == 0 {
			// Update phase: ship coordinates, servers rebuild their
			// lists; the reply carries no data beyond the completion
			// signal (eq. 8 of the model).
			updT0 := t.Now()
			if err := runPhase(updatePhase); err != nil {
				return nil, err
			}
			telemetry.MDUpdateSeconds.Observe(t.Now() - updT0)
			for _, r := range updateReps[:conn.NumServers()] {
				info.PairChecks += r.Checks
			}
			info.Updated = true
			if trackBoundary {
				copy(boundaryPos, c.pos)
			}
		}
		// Energy evaluation phase: coordinates out, partial energies and
		// gradients back (eqs. 7 and 9).
		if err := runPhase(nbintPhase); err != nil {
			return nil, err
		}
		for i := range grad {
			grad[i] = 0
		}
		var evdw, ecoul float64
		nsrv := conn.NumServers()
		for r := range nbintReps[:nsrv] {
			evdw += nbintReps[r].Evdw
			ecoul += nbintReps[r].Ecoul
			info.ActivePairs += nbintReps[r].Npairs
			for i, g := range nbintReps[r].Grad {
				grad[i] += g
			}
		}
		// The gather-and-sum is client work.
		t.Charge("reduce", forcefield.ReduceOps.Times(float64(3*sys.N*nsrv)))
		fin := c.finishStep(t, evdw, ecoul, grad)
		fin.PairChecks = info.PairChecks
		fin.Updated = info.Updated
		fin.ActivePairs = info.ActivePairs
		if opts.Trajectory != nil {
			if err := opts.Trajectory.Frame(step, fin.ETotal, c.pos); err != nil {
				return nil, fmt.Errorf("md: trajectory: %w", err)
			}
		}
		res.Steps = append(res.Steps, fin)
		conn.ResumeLoD()
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
		if opts.AfterStep != nil {
			opts.AfterStep(step, fin)
		}
		if opts.Cancel != nil {
			if cerr := opts.Cancel(); cerr != nil {
				// Stop cleanly at the boundary: the shutdown handshake
				// parks the servers exactly as a completed run would.
				telemetry.Emit("run_canceled", telemetry.F{
					"step": opts.StartStep + step + 1, "cause": cerr.Error(),
				})
				conn.Close()
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
	// Every server segment precedes the client's receipt of that server's
	// last reply or barrier release, so the window closes on a trace that
	// ends here; the shutdown handshake below is outside it.
	pvm.CloseWindow(t, res.EndSeconds)
	res.StepSeconds = res.EndSeconds - t0
	res.FinalPos = append([]float64(nil), c.pos...)
	res.FinalVel = append([]float64(nil), c.vel...)
	res.LoDMacroPhases, res.LoDFallbackPhases = conn.LoDPhases()
	conn.Close()
	return res, nil
}
