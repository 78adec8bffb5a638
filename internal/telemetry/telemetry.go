// Package telemetry is the live observability plane of the reproduction:
// a zero-dependency metrics registry (sharded atomic counters, gauges and
// fixed-bucket histograms with a Prometheus text exposition), a structured
// JSONL run journal of lifecycle events with a bounded in-memory flight
// recorder, and the HTTP endpoints that serve them (Plane).
//
// The paper's central methodological claim (Section 3) is that accurate
// accounting must live *inside* the middleware — counters integrated into
// Sciddle rather than external samplers.  The trace.Recorder breakdowns
// reproduce the offline half of that claim; this package is the online
// half: the same code-integrated instrumentation, readable while a run is
// in flight, cheap enough to leave armed in production.
//
// The process-wide instruments — the registry's counters, gauges and
// histograms — are gated on one package-level switch.  Disabled (the
// default), every instrument call is a single atomic load and a predicted
// branch — the no-op compilation the recovery plane's <2% overhead budget
// requires (BenchmarkTelemetryOverhead guards it).  What belongs to one
// run — the ID its journal lines carry, its health, its comm matrix —
// lives on the run's Scope, and what one front door serves over HTTP —
// its run, its components' health, its stream's extras, its endpoints —
// is the Plane it passes in, never package state, so concurrent runs and
// servers in one process keep their telemetry apart.  Telemetry never
// feeds back into the simulation: virtual timelines and physics are
// bit-identical with the plane on or off.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// on is the package-level master switch.  All instruments no-op while it
// is false.
var on atomic.Bool

// SetEnabled arms or disarms the telemetry plane.
func SetEnabled(v bool) { on.Store(v) }

// runID identifies the process in journal lines and /metrics.
var runID atomic.Pointer[string]

// SetRun installs the process's run identifier: the opal_run info metric,
// the journal lines the process emits outside any run, and the ID a run
// without its own scope is stamped with.
func SetRun(id string) { runID.Store(&id) }

// Run returns the process's run identifier ("" when none is set).
func Run() string {
	if p := runID.Load(); p != nil {
		return *p
	}
	return ""
}

// NewRunID returns a fresh run identifier: the wall-clock second the run
// started plus 4 random bytes, e.g. "20260806T120301-9f3a2c1d".
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The clock alone still identifies the run well enough.
		return time.Now().UTC().Format("20060102T150405")
	}
	return time.Now().UTC().Format("20060102T150405") + "-" + hex.EncodeToString(b[:])
}

// Scope is one run's telemetry: the ID its journal lines carry, the health
// its supervisor and oracle report, and, when armed, its comm matrix.  A
// run owns its scope (harness.RunSpec.Scope) and every layer of the run
// reaches it from the run's session, so concurrent runs keep apart what
// they report.  HTTP reports a run's health and matrix only where a
// single-run front door names it as its Plane's Run.
type Scope struct {
	// ID names the run in its journal lines and archived summary.
	ID string
	// Matrix, when non-nil, books the run's sends, RPC latencies and
	// traced segments per rank.
	Matrix *Matrix
	// MatrixEvery asks for a comm_matrix/rank_profile journal snapshot
	// every so many completed steps besides the one at run end (0: only
	// at run end).
	MatrixEvery int

	health atomic.Pointer[healthState]
}

// healthState is what /healthz reports: the supervisor's current rung and
// whether it still counts as healthy.
type healthState struct {
	state string
	ok    bool
}

// SetHealth records the run's current health; the supervisor calls it on
// every state transition and the oracle on an anomaly.  ok=false turns the
// /healthz of a plane that serves the run into a 503.
func (s *Scope) SetHealth(state string, ok bool) {
	s.health.Store(&healthState{state: state, ok: ok})
}

// Health returns the run's health.  Before anything reports, a run is
// "idle" and healthy.
func (s *Scope) Health() (state string, ok bool) {
	if h := s.health.Load(); h != nil {
		return h.state, h.ok
	}
	return "idle", true
}

// Emit records one event of the run on the installed journal, stamped
// with the run's ID; a no-op when no journal is installed.
func (s *Scope) Emit(typ string, fields F) {
	if j := current.Load(); j != nil {
		j.emit(s.ID, typ, fields)
	}
}
