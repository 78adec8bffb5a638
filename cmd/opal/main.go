// Command opal runs one Opal molecular simulation on a virtual platform
// and prints the per-step physics and the measured execution-time
// breakdown — the instrumented run at the heart of the paper's
// methodology.
//
// Examples:
//
//	opal -platform j90 -size medium -servers 4 -steps 10
//	opal -platform fast -size large -cutoff 10 -update 10 -servers 7
//	opal -size small -servers 0            # the serial Opal 2.6
//	opal -size small -fault-rate 0.02 -fault-seed 7   # seeded chaos run
//	opal -size small -journal run.jsonl -trace-json run.trace.json
//	opal -size medium -steps 50 -http 127.0.0.1:9090  # live /metrics, /healthz, pprof
//	opal -size medium -steps 20 -oracle -modelz       # model-in-the-loop check
//	opal -size small -supervise -kill-server 3:1 -oracle   # oracle flags the fault
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"opalperf/internal/archive"
	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/oracle"
	"opalperf/internal/platform"
	"opalperf/internal/report"
	"opalperf/internal/sciddle"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

// runConfig binds the flags that describe the run to a harness.Config
// and returns the function that completes and validates it once fs is
// parsed.  -supervise turns accounting off: heal-time calls bypass the
// phase barriers.
func runConfig(fs *flag.FlagSet) func() (harness.Config, error) {
	var c harness.Config
	f, o := &c.Fleet, &c.Options
	fs.StringVar(&f.Platform, "platform", "j90", "platform: "+strings.Join(platform.Keys(), ", "))
	fs.StringVar(&f.Size, "size", "medium", "problem size: small, medium, large")
	fs.Float64Var(&f.Scale, "scale", 1.0, "problem size scale factor (<1 for quick runs)")
	fs.IntVar(&f.Servers, "servers", 4, "computation servers (0 = serial Opal 2.6)")
	fs.IntVar(&f.Steps, "steps", 10, "simulation steps")
	fs.Float64Var(&o.Cutoff, "cutoff", harness.NoCutoff, "cut-off radius in Angstrom (60 = ineffective)")
	fs.IntVar(&o.UpdateEvery, "update", 1, "steps between pair-list updates (1 = full, 10 = partial)")
	fs.StringVar(&o.Strategy, "strategy", "lcg", "pair distribution: lcg, round-robin, folded")
	fs.BoolVar(&o.Accounting, "accounting", true, "barrier-separated timing (Section 3.3)")
	dynamics := fs.Bool("dynamics", false, "leapfrog dynamics instead of energy minimization")
	faultRate := fs.Float64("fault-rate", 0, "per-event fault injection probability (0 = off)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault schedule seed; one seed is one schedule")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "also write -checkpoint atomically every N steps, at pair-list update boundaries (0 = end of run only)")
	fs.BoolVar(&o.SelfHeal, "supervise", false, "self-heal: respawn dead servers at their rank and re-expand to full width (forces -accounting=false)")
	fs.StringVar(&o.LoD, "lod", "auto", "level of detail: auto (macro-replay every RPC phase that is provably fault-free, same output), off (everything fine-grained, the reference)")
	return func() (harness.Config, error) {
		o.Minimize = !*dynamics
		if o.SelfHeal && o.Accounting {
			fmt.Println("note: -supervise disables -accounting (heal-time calls bypass the phase barriers)")
			o.Accounting = false
		}
		if *faultRate != 0 {
			c.Faults = &harness.FaultSpec{Seed: *faultSeed, Rate: *faultRate}
		}
		return c, c.Validate()
	}
}

func main() {
	runCfg := runConfig(flag.CommandLine)
	var (
		verbose    = flag.Bool("v", false, "print every simulation step")
		timeline   = flag.Bool("timeline", false, "draw the per-process activity timeline")
		metrics    = flag.Bool("metrics", false, "print the middleware-level metrics (Section 3.3)")
		molFile    = flag.String("molecule", "", "load the complex from a file instead of -size")
		saveFile   = flag.String("save", "", "save the complex to a file before running")
		resumeFile = flag.String("resume", "", "resume from a checkpoint file")
		ckptFile   = flag.String("checkpoint", "", "write a checkpoint file after the run")
		xyzFile    = flag.String("xyz", "", "write an XYZ trajectory of the run")
		killSrv    = flag.String("kill-server", "", "administrative kill schedule 'step:rank[,step:rank...]' (requires -supervise)")
		journal    = flag.String("journal", "", "append a JSONL run journal of lifecycle events to this file")
		traceJSON  = flag.String("trace-json", "", "write the run's timelines as Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev)")
		httpAddr   = flag.String("http", "", "serve /metrics (Prometheus), /healthz and /debug/pprof on this address while running; with -oracle also /modelz")
		flightN    = flag.Int("flight", 256, "flight-recorder depth: last N journal events dumped to stderr on degradation or crash")
		jMaxBytes  = flag.Int64("journal-max-bytes", 0, "cap the JSONL journal file at this many bytes; events past the cap are dropped and counted (0 = unbounded)")
		oracleOn   = flag.Bool("oracle", false, "arm the model-in-the-loop oracle: check each step window against the platform's analytic model, emit oracle_anomaly events and degrade /healthz on residual blowup")
		oracleWin  = flag.Int("oracle-window", 5, "oracle evaluation window in steps (a multiple of -update keeps windows uniform)")
		modelz     = flag.Bool("modelz", false, "print the oracle's end-of-run predicted-vs-measured report (requires -oracle); the live /modelz endpoint is served under -http")
		archDir    = flag.String("archive", "", "append this run's journal events and summary to the persistent run archive at this directory (query with opalquery)")
		watchdog   = flag.Bool("watchdog", false, "judge this run against the archived rolling baseline for its spec; exit 3 on a flagged regression (requires -archive)")
		watchTol   = flag.Float64("watchdog-tol", 1.25, "watchdog wall-time tolerance factor over the baseline median")
		matrixOn   = flag.Bool("matrix", false, "arm the per-rank/per-link comm matrix and rank profiles (journaled as comm_matrix/rank_profile events, streamed on /streamz, inspect with opaltop or opalquery matrix)")
		matrixEvy  = flag.Int("matrix-every", 0, "also emit comm_matrix/rank_profile journal records every N steps (0 = end of run only; requires -matrix)")
	)
	flag.Parse()

	// The telemetry plane observes the run; it never feeds back into the
	// simulation, so physics and virtual times are unchanged by enabling it.
	telemetry.SetEnabled(true)
	telemetry.SetRun(telemetry.NewRunID())
	if *matrixOn {
		telemetry.EnableMatrix(true)
		telemetry.SetMatrixEmitEvery(*matrixEvy)
	} else if *matrixEvy != 0 {
		fatal(fmt.Errorf("-matrix-every requires -matrix"))
	}
	var journalOut *os.File
	if *journal != "" {
		var err error
		journalOut, err = os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer journalOut.Close()
	}
	j := telemetry.StartJournal(journalOut, *flightN)
	j.SetDumpWriter(os.Stderr)
	if *jMaxBytes > 0 {
		j.SetMaxBytes(*jMaxBytes)
	}
	defer telemetry.StopJournal()
	if *watchdog && *archDir == "" {
		fatal(fmt.Errorf("-watchdog requires -archive"))
	}
	var arch *archive.Archive
	if *archDir != "" {
		var err error
		arch, err = archive.Open(*archDir)
		if err != nil {
			fatal(err)
		}
		j.SetMirror(arch.MirrorEvent)
		defer func() {
			j.SetMirror(nil)
			arch.Close()
		}()
	}
	defer func() {
		// A panicking run dumps the flight recorder before dying: the last
		// N lifecycle events are the crash context.
		if r := recover(); r != nil {
			telemetry.DumpFlight(os.Stderr)
			panic(r)
		}
	}()
	if *httpAddr != "" {
		bound, stopHTTP, err := telemetry.Serve(*httpAddr)
		if err != nil {
			// A taken port is an operator mistake, not a run failure:
			// name the flag and the likely cause instead of a bare
			// listen error.
			fatal(fmt.Errorf("cannot serve -http on %q: %w (is another opal or opald already bound there?)", *httpAddr, err))
		}
		defer stopHTTP()
		fmt.Printf("telemetry: serving /metrics, /healthz, /debug/pprof on http://%s\n", bound)
	}

	cfg, err := runCfg()
	if err != nil {
		fatal(err)
	}
	var kills fault.KillSchedule
	if *killSrv != "" {
		if !cfg.Options.SelfHeal {
			fatal(fmt.Errorf("-kill-server requires -supervise"))
		}
		if kills, err = parseKills(*killSrv, cfg.Fleet.Servers); err != nil {
			fatal(err)
		}
	}
	if cfg.Options.CheckpointEvery > 0 && *ckptFile == "" {
		fatal(fmt.Errorf("-checkpoint-every needs -checkpoint <file>"))
	}

	var sys *molecule.System
	var resume *md.Checkpoint
	switch {
	case *resumeFile != "":
		if resume, err = md.ReadCheckpointFile(*resumeFile); err != nil {
			fatal(err)
		}
		sys = resume.Sys
	case *molFile != "":
		f, err := os.Open(*molFile)
		if err != nil {
			fatal(err)
		}
		sys, err = molecule.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		sys = harness.Sizes(cfg.Fleet.Scale)[cfg.Fleet.Size]
	}
	spec, err := cfg.RunSpec(sys)
	if err != nil {
		fatal(err)
	}
	opts := &spec.Opts
	if resume != nil {
		if *opts, err = resume.Resume(*opts); err != nil {
			fatal(err)
		}
		fmt.Printf("resuming from %s at step %d\n", *resumeFile, resume.Step)
	}
	if kills != nil {
		opts.Kills = kills.Func()
	}
	if opts.CheckpointEvery > 0 {
		opts.CheckpointSink = func(cp *md.Checkpoint) error {
			if err := cp.WriteFile(*ckptFile); err != nil {
				return err
			}
			fmt.Printf("checkpoint at step %d written to %s\n", cp.Step, *ckptFile)
			return nil
		}
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fatal(err)
		}
		if err := sys.Write(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("saved complex to %s\n", *saveFile)
	}
	var xyzOut *os.File
	if *xyzFile != "" {
		var err error
		xyzOut, err = os.Create(*xyzFile)
		if err != nil {
			fatal(err)
		}
		defer xyzOut.Close()
		opts.Trajectory = md.NewTrajectoryWriter(xyzOut, sys, 1)
	}

	if arch != nil {
		spec.Archive = &archive.Sink{Archive: arch}
	}
	pl := spec.Platform
	var orc *oracle.Oracle
	if *oracleOn {
		if spec.Servers <= 0 {
			fatal(fmt.Errorf("-oracle needs parallel servers (-servers > 0): the model predicts the client/server decomposition"))
		}
		oc := harness.OracleConfig(spec, *oracleWin)
		oc.RecalibrateEvery, oc.DegradeHealth = 4, true
		orc = oracle.New(oc)
		spec.Oracle = orc
		telemetry.Handle("/modelz", orc.Handler())
		telemetry.RegisterStreamExtra("oracle", orc.StreamExtra)
	} else if *modelz {
		fatal(fmt.Errorf("-modelz requires -oracle"))
	}
	if *metrics || *timeline || *traceJSON != "" {
		// These read the run's intervals, which harness.Run keeps only
		// for a caller that passes a recorder.
		spec.Recorder = trace.NewRecorder()
	}
	fmt.Printf("Opal on %s — %s (%d mass centers, gamma %.3f), %d servers, %d steps\n",
		pl.Name, sys.Name, sys.N, sys.Gamma(), spec.Servers, spec.Steps)
	fmt.Printf("cut-off %.0f A (%seffective), update every %d step(s), %s distribution\n\n",
		opts.Cutoff, effPrefix(sys, opts.Cutoff), opts.UpdateEvery, opts.Strategy)

	out, err := harness.Run(spec)
	if err != nil {
		fatal(err)
	}

	if *verbose {
		st := &report.Table{
			Title:   "simulation steps",
			Headers: []string{"step", "E_total", "E_vdw", "E_coul", "E_bonded", "T[K]", "pairs"},
		}
		for i, s := range out.Result.Steps {
			st.AddRowf(2, i, s.ETotal, s.EVdw, s.ECoul, s.EBonded, s.Temperature, s.ActivePairs)
		}
		fmt.Println(st)
	}

	last := out.Result.Steps[len(out.Result.Steps)-1]
	fmt.Printf("final energy %.2f kcal/mol (vdw %.2f, coul %.2f, bonded %.2f)\n",
		last.ETotal, last.EVdw, last.ECoul, last.EBonded)
	fmt.Printf("active pairs %d, volume %.0f A^3\n\n", last.ActivePairs, last.Volume)

	b := out.Breakdown
	fmt.Printf("virtual execution time on %s: %.3f s for %d steps\n", pl.Name, out.Wall, spec.Steps)
	fmt.Printf("  parallel computation  %8.3f s  (busiest server %.3f, imbalance %.1f%%)\n",
		b.ParComp, b.MaxParComp, 100*b.Imbalance())
	fmt.Printf("  sequential computation%8.3f s\n", b.SeqComp)
	fmt.Printf("  communication         %8.3f s\n", b.Comm)
	fmt.Printf("  synchronization       %8.3f s\n", b.Sync)
	fmt.Printf("  idle (load imbalance) %8.3f s\n", b.Idle)
	if spec.Faults != nil {
		fs := out.FaultStats
		fmt.Printf("  fault recovery        %8.3f s\n", b.Recovery)
		fmt.Printf("injected faults (seed %d, rate %g): %d total — %d drops, %d dups, %d delays, %d crashes, %d stragglers\n",
			cfg.Faults.Seed, cfg.Faults.Rate, fs.Total(), fs.Drops, fs.Dups, fs.Delays, fs.Crashes, fs.Stragglers)
	}
	if opts.SelfHeal {
		fmt.Printf("self-healing: %d respawn(s) (%.3f s), %d degraded recover(ies)\n",
			out.Result.Respawns, out.Result.RespawnSeconds, out.Result.Recoveries)
	}
	if orc != nil {
		snap := orc.Snapshot()
		fmt.Printf("model oracle: %d window(s) of %d step(s) checked against %s, %d anomaly(ies)\n",
			snap.Windows, snap.Window, snap.Machine.Name, snap.Anomalies)
		if *modelz && snap.Last != nil {
			tbl := &report.Table{
				Title:   fmt.Sprintf("oracle: last window (steps %d-%d)", snap.Last.StartStep, snap.Last.EndStep),
				Headers: []string{"term", "predicted [s]", "measured [s]", "residual [s]", "z"},
			}
			for _, tr := range snap.Last.Terms {
				tbl.AddRowf(6, tr.Term, tr.Predicted, tr.Measured, tr.Residual, tr.Z)
			}
			fmt.Println()
			fmt.Println(tbl)
			if snap.Refit != nil {
				fmt.Printf("refit machine parameters: a1 %.4g  b1 %.4g  a2 %.4g  a3 %.4g  a4 %.4g  b5 %.4g (MAPE %.1f%%, R2 %.3f)\n",
					snap.Refit.A1, snap.Refit.B1, snap.Refit.A2, snap.Refit.A3, snap.Refit.A4, snap.Refit.B5,
					snap.RefitMAPE, snap.RefitR2)
			}
		}
	}

	if *metrics && spec.Servers > 0 {
		fmt.Println()
		fmt.Print(sciddle.MetricsOf(out.Recorder, 0, out.Result.ServerTIDs,
			out.Result.StartSeconds, out.Result.EndSeconds))
	}
	if *timeline {
		names := map[int]string{0: "client"}
		for i, tid := range out.Result.ServerTIDs {
			names[tid] = fmt.Sprintf("server %d", i)
		}
		fmt.Println()
		fmt.Print(trace.RenderTimeline(out.Recorder, names,
			out.Result.StartSeconds, out.Result.EndSeconds, 100))
	}
	if *traceJSON != "" {
		names := map[int]string{0: "client"}
		for i, tid := range out.Result.ServerTIDs {
			names[tid] = fmt.Sprintf("server %d", i)
		}
		f, err := os.Create(*traceJSON)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChromeTrace(f, out.Recorder, names); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d segments written to %s\n", out.Recorder.Len(), *traceJSON)
	}

	if *ckptFile != "" {
		cp := md.CheckpointOf(sys, out.Result)
		if err := cp.WriteFile(*ckptFile); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint at step %d written to %s\n", cp.Step, *ckptFile)
	}
	if xyzOut != nil {
		fmt.Printf("trajectory: %d frames in %s\n", opts.Trajectory.Frames(), *xyzFile)
	}

	if *watchdog {
		// This run's summary is already archived (the sink wrote it inside
		// harness.Run); judge it against its spec's history, which Watch
		// takes without this run.
		q := archive.Query{Spec: harness.SpecHashOf(spec), Run: telemetry.Run()}
		mine := arch.Summaries(q)
		if len(mine) == 0 {
			fatal(fmt.Errorf("-watchdog: this run's summary did not reach the archive"))
		}
		tol := archive.DefaultTolerance()
		tol.WallFactor = *watchTol
		q.Run = ""
		rep := archive.Watch(arch.Summaries(q), mine[0], tol)
		fmt.Println(rep.String())
		if rep.Flagged {
			// Exit 3 skips the defers, so flush them by hand first.
			j.SetMirror(nil)
			arch.Close()
			telemetry.StopJournal()
			os.Exit(3)
		}
	}
}

// parseKills parses an administrative kill schedule of the form
// "step:rank[,step:rank...]", e.g. "2:1,6:0", for a fleet of servers
// ranks: a rank outside the fleet would silently never fire.
func parseKills(s string, servers int) (fault.KillSchedule, error) {
	ks := fault.KillSchedule{}
	for _, part := range strings.Split(s, ",") {
		var step, rank int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &step, &rank); err != nil {
			return nil, fmt.Errorf("bad -kill-server entry %q (want step:rank)", part)
		}
		if step < 0 || rank < 0 {
			return nil, fmt.Errorf("bad -kill-server entry %q: negative step or rank", part)
		}
		if rank >= servers {
			return nil, fmt.Errorf("-kill-server %d:%d: rank %d is outside the fleet [0, %d)", step, rank, rank, servers)
		}
		ks[step] = append(ks[step], rank)
	}
	return ks, nil
}

func effPrefix(sys *molecule.System, cutoff float64) string {
	if sys.CutoffEffective(cutoff) {
		return ""
	}
	return "in"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opal:", err)
	// The flight recorder holds the last lifecycle events — the context of
	// the failure.  os.Exit skips deferred dumps, so dump here.
	telemetry.DumpFlight(os.Stderr)
	os.Exit(1)
}
