// Package oracle closes the loop between the paper's analytic model and a
// live run: a model-in-the-loop observability layer riding on the
// telemetry plane.  While the engine steps, the oracle accumulates the
// measured execution-time breakdown (par/seq/comm/sync) of each sliding
// window from the trace recorder, evaluates the calibrated
// core.Machine for the same window — using the engine's exact pair
// counts, so partial-update schedules don't alias — and publishes the
// per-term residuals as gauges and histograms.  EWMA-tracked residuals
// that breach a z-score threshold raise oracle_anomaly journal events
// (catching e.g. a fault-induced Comm/Sync blowup or the even-p
// imbalance) and can trip /healthz degradation; periodic sliding-window
// recalibration via core.Calibrate makes drift of the fitted machine
// parameters (a1, b1, b5, ...) itself observable.
//
// This is the online continuation of the paper's Section 3 accounting
// loop: the authors pushed HPM counters into the middleware so every
// second of a run could be attributed; the oracle additionally checks the
// attribution against the model while the run is still going.
package oracle

import (
	"math"
	"sync"

	"opalperf/internal/core"
	"opalperf/internal/molecule"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
)

// Config parameterizes an Oracle.
type Config struct {
	// Machine is the calibrated model to check the run against.
	Machine core.Machine
	// Sys, Cutoff and UpdateEvery describe the run the way
	// core.AppFor needs them.
	Sys         *molecule.System
	Cutoff      float64
	UpdateEvery int
	// Servers is the logical fleet width p (respawns keep it constant).
	Servers int
	// Window is the number of steps per evaluation window (default 5).
	// Choosing a multiple of UpdateEvery keeps windows uniform.
	Window int
	// Z is the anomaly threshold in EWMA standard deviations (default 3).
	Z float64
	// RelFloor and AbsFloor bound the deviation scale from below: the
	// z-score divides by max(sd, RelFloor*|predicted|, AbsFloor), so the
	// near-zero variance of a deterministic run cannot turn numerical dust
	// into anomalies.  Defaults 0.05 and 1e-9 seconds.
	RelFloor float64
	AbsFloor float64
	// MinWindows is the EWMA warm-up: no anomaly fires before this many
	// windows have been observed (default 3).
	MinWindows int
	// Alpha is the EWMA smoothing factor (default 0.3).
	Alpha float64
	// History caps the per-window measurement ring kept for
	// recalibration (default 32).
	History int
	// RecalibrateEvery runs core.Calibrate over the measurement ring
	// every that many windows; 0 disables recalibration.
	RecalibrateEvery int
	// DegradeHealth, when set, marks telemetry health degraded on the
	// first anomaly, so /healthz turns 503 — the oracle as a liveness
	// check for the *model*, not just the process.
	DegradeHealth bool
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 1
	}
	if c.Z <= 0 {
		c.Z = 3
	}
	if c.RelFloor <= 0 {
		c.RelFloor = 0.05
	}
	if c.AbsFloor <= 0 {
		c.AbsFloor = 1e-9
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 3
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.3
	}
	if c.History <= 0 {
		c.History = 32
	}
	return c
}

// TermReport is the predicted-vs-measured state of one model term in one
// window.
type TermReport struct {
	Term      string  `json:"term"`
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
	Residual  float64 `json:"residual"`
	EWMAMean  float64 `json:"ewma_mean"`
	EWMASD    float64 `json:"ewma_sd"`
	Z         float64 `json:"z"`
	Anomaly   bool    `json:"anomaly"`
}

// WindowReport is the full evaluation of one window.
type WindowReport struct {
	Index        int          `json:"index"`
	StartStep    int          `json:"start_step"`
	EndStep      int          `json:"end_step"` // exclusive
	T0           float64      `json:"t0"`
	T1           float64      `json:"t1"`
	Partial      bool         `json:"partial"` // trailing window, anomaly check skipped
	Terms        []TermReport `json:"terms"`
	MeasuredIdle float64      `json:"measured_idle"`
}

// ewma tracks the running mean and variance of one term's residual.
type ewma struct {
	mean, varr float64
	n          int
}

func (e *ewma) observe(alpha, x float64) {
	if e.n == 0 {
		e.mean = x
	} else {
		d := x - e.mean
		e.mean += alpha * d
		e.varr = (1 - alpha) * (e.varr + alpha*d*d)
	}
	e.n++
}

// Oracle is the live model checker.  All entry points are called on the
// client's goroutine (holding the execution token), but a concurrent
// /modelz reader may snapshot at any time, hence the mutex.
type Oracle struct {
	mu  sync.Mutex
	cfg Config

	rec    *trace.Recorder
	client int

	baseApp core.App // S replaced per window

	winStart     float64
	winStartStep int
	winSteps     int
	checks       float64
	active       float64

	started   bool
	windows   int
	anomalies int
	anomTerms map[string]int
	terms     [4]ewma
	last      *WindowReport

	history []core.Measurement
	refit   *core.Report

	// Cached gauge/histogram handles per term, resolved once.
	gResid [4]*telemetry.FGauge
	hResid [4]*telemetry.Histogram
	cAnom  [4]*telemetry.Counter
}

// New creates an oracle; Attach must be called before Start.
func New(cfg Config) *Oracle {
	cfg = cfg.withDefaults()
	o := &Oracle{cfg: cfg}
	for i, t := range core.TermNames() {
		o.gResid[i] = telemetry.OracleResidual.With(t)
		o.hResid[i] = telemetry.OracleAbsResid.With(t)
		o.cAnom[i] = telemetry.OracleAnomalies.With(t)
	}
	return o
}

// Config returns the effective (defaulted) configuration.
func (o *Oracle) Config() Config { return o.cfg }

// Attach binds the oracle to a run's trace recorder, client process id
// and fleet width.  The harness calls this before the run starts.
func (o *Oracle) Attach(rec *trace.Recorder, clientID, servers int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rec = rec
	o.client = clientID
	if servers > 0 {
		o.cfg.Servers = servers
	}
	o.baseApp = core.AppFor(o.cfg.Sys, o.cfg.Cutoff, o.cfg.UpdateEvery, o.cfg.Servers, o.cfg.Window)
}

// Start opens the first window at the given client time (the start of the
// measured simulation phase, after initialization).
func (o *Oracle) Start(now float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.winStart = now
	o.winStartStep = 0
	o.winSteps = 0
	o.checks = 0
	o.active = 0
	o.started = true
	telemetry.Emit("oracle_start", telemetry.F{
		"machine": o.cfg.Machine.Name, "window": o.cfg.Window, "z": o.cfg.Z,
	})
}

// StepDone feeds one completed step: its exact distance-check and
// active-pair counts and the client time after the step.  Closes and
// evaluates the window when it is full.
func (o *Oracle) StepDone(step int, now float64, checks, active int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started {
		return
	}
	o.checks += float64(checks)
	o.active += float64(active)
	o.winSteps++
	if o.winSteps >= o.cfg.Window {
		o.closeWindow(step+1, now, false)
	}
}

// Finish evaluates any trailing partial window (anomaly check skipped:
// its step count differs from the EWMA's training windows) and emits the
// run summary event.
func (o *Oracle) Finish(now float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started {
		return
	}
	if o.winSteps > 0 {
		o.closeWindow(o.winStartStep+o.winSteps, now, true)
	}
	telemetry.Emit("oracle_finish", telemetry.F{
		"windows": o.windows, "anomalies": o.anomalies,
	})
	o.started = false
}

// closeWindow evaluates [o.winStart, now] = steps [o.winStartStep,
// endStep) and opens the next window.  Caller holds the mutex.
func (o *Oracle) closeWindow(endStep int, now float64, partial bool) {
	serverIDs := o.serverIDs()
	wall := now - o.winStart
	meas := trace.ComputeBreakdownBetween(o.rec, o.client, serverIDs, o.winStart, now, wall)

	app := o.baseApp
	app.S = o.winSteps
	pred := o.cfg.Machine.PredictCounts(app, o.checks, o.active)

	// The model's Par term is the total parallel work over the logical
	// fleet width p.  The breakdown averages over every proc id that left
	// segments, which after a self-heal includes both a dead server and
	// its replacement — renormalize so a respawn does not read as a
	// computation anomaly.
	par := meas.ParComp
	if n := len(serverIDs); n > 0 && o.cfg.Servers > 0 && n != o.cfg.Servers {
		par = par * float64(n) / float64(o.cfg.Servers)
	}
	measured := core.Breakdown{Par: par, Seq: meas.SeqComp, Comm: meas.Comm + meas.Recovery, Sync: meas.Sync}
	rep := &WindowReport{
		Index:        o.windows,
		StartStep:    o.winStartStep,
		EndStep:      endStep,
		T0:           o.winStart,
		T1:           now,
		Partial:      partial,
		MeasuredIdle: meas.Idle,
	}

	names := core.TermNames()
	mv, pv := measured.Terms(), pred.Terms()
	for i := range names {
		r := mv[i] - pv[i]
		tr := TermReport{Term: names[i], Predicted: pv[i], Measured: mv[i], Residual: r}
		e := &o.terms[i]
		scale := math.Max(math.Sqrt(e.varr), math.Max(o.cfg.RelFloor*math.Abs(pv[i]), o.cfg.AbsFloor))
		tr.EWMAMean = e.mean
		tr.EWMASD = math.Sqrt(e.varr)
		tr.Z = (r - e.mean) / scale
		if !partial {
			if e.n >= o.cfg.MinWindows && math.Abs(tr.Z) > o.cfg.Z {
				tr.Anomaly = true
				o.anomalies++
				if o.anomTerms == nil {
					o.anomTerms = map[string]int{}
				}
				o.anomTerms[names[i]]++
				o.cAnom[i].Add(1)
				telemetry.Emit("oracle_anomaly", telemetry.F{
					"term": names[i], "window": o.windows,
					"predicted": pv[i], "measured": mv[i], "residual": r,
					"z": tr.Z, "start_step": o.winStartStep, "end_step": endStep,
				})
				if o.cfg.DegradeHealth {
					telemetry.SetHealth("model_anomaly", false)
				}
			} else {
				e.observe(o.cfg.Alpha, r)
			}
			o.gResid[i].Set(r)
			o.hResid[i].Observe(math.Abs(r))
		}
		rep.Terms = append(rep.Terms, tr)
	}

	if !partial {
		telemetry.OracleWindows.Add(1)
		o.history = append(o.history, core.Measurement{
			App: app,
			Par: measured.Par, Seq: measured.Seq, Comm: measured.Comm, Sync: measured.Sync,
			Idle:        meas.Idle,
			TotalChecks: o.checks, TotalActive: o.active,
		})
		if len(o.history) > o.cfg.History {
			o.history = o.history[len(o.history)-o.cfg.History:]
		}
		o.windows++
		if o.cfg.RecalibrateEvery > 0 && o.windows%o.cfg.RecalibrateEvery == 0 {
			o.recalibrate()
		}
	}
	o.last = rep

	o.winStart = now
	o.winStartStep = endStep
	o.winSteps = 0
	o.checks = 0
	o.active = 0
}

// serverIDs derives the server process ids from the recorder (everything
// but the client), so respawned replacement TIDs are covered without the
// oracle tracking the heal protocol.  Caller holds the mutex.
func (o *Oracle) serverIDs() []int {
	procs := o.rec.Procs()
	ids := procs[:0:0]
	for _, id := range procs {
		if id != o.client {
			ids = append(ids, id)
		}
	}
	return ids
}

// recalibrate refits the machine parameters over the measurement ring and
// publishes them as drift gauges.  Degenerate fits (short rings, constant
// regressors) are skipped silently — the next window will retry.  Caller
// holds the mutex.
func (o *Oracle) recalibrate() {
	if len(o.history) < 2 {
		return
	}
	rep, err := core.Calibrate(o.cfg.Machine.Name+"-refit", o.history)
	if err != nil {
		return
	}
	o.refit = &rep
	telemetry.OracleRecals.Add(1)
	m := rep.Machine
	for _, p := range []struct {
		name string
		v    float64
	}{{"a1", m.A1}, {"b1", m.B1}, {"a2", m.A2}, {"a3", m.A3}, {"a4", m.A4}, {"b5", m.B5}} {
		telemetry.OracleParam.With(p.name).Set(p.v)
	}
	telemetry.Emit("oracle_recalibrated", telemetry.F{
		"windows": o.windows, "cases": len(o.history),
		"a1": m.A1, "b1": m.B1, "a2": m.A2, "a3": m.A3, "a4": m.A4, "b5": m.B5,
		"mape": rep.MAPE, "r2": rep.R2,
	})
}

// Windows returns the number of full windows evaluated.
func (o *Oracle) Windows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.windows
}

// Anomalies returns the number of anomalies flagged.
func (o *Oracle) Anomalies() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.anomalies
}

// ResidualMeans returns each model term's EWMA residual mean (measured
// minus predicted virtual seconds), keyed by term name.  Terms that never
// observed a window are omitted.  The run archive stores this as the
// per-run drift sample the cross-run residual table aggregates.
func (o *Oracle) ResidualMeans() map[string]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]float64, len(o.terms))
	for i, name := range core.TermNames() {
		if o.terms[i].n > 0 {
			out[name] = o.terms[i].mean
		}
	}
	return out
}

// AnomalyTerms returns the per-term anomaly counts — which model terms
// (par, seq, comm, sync) the flagged deviations were attributed to.  The
// scenario engine asserts on this attribution.
func (o *Oracle) AnomalyTerms() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int, len(o.anomTerms))
	for k, v := range o.anomTerms {
		out[k] = v
	}
	return out
}

// Last returns the most recent window report, or nil before the first
// window closes.
func (o *Oracle) Last() *WindowReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.last == nil {
		return nil
	}
	cp := *o.last
	cp.Terms = append([]TermReport(nil), o.last.Terms...)
	return &cp
}
