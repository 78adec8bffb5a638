package telemetry

// The standard instruments of the telemetry plane, wired through the PVM
// fabrics, the Sciddle RPC layer, the md engine, the fault plane and the
// supervisor.  They live here as package variables so instrument sites
// stay one-liners and every binary exposes the same metric names.

// LatencyBuckets covers call and step latencies from 1 µs to ~67 s in
// factor-4 steps — wide enough for both virtual (simulated platform) and
// real (host) seconds.
var LatencyBuckets = ExpBuckets(1e-6, 4, 13)

var (
	// PVM fabric traffic (all fabrics: simulated, local, TCP).
	PvmMsgsSent  = Default.Counter("opal_pvm_messages_sent_total", "PVM messages sent.")
	PvmBytesSent = Default.Counter("opal_pvm_bytes_sent_total", "PVM payload bytes sent.")
	PvmBarriers  = Default.Counter("opal_pvm_barriers_total", "PVM barrier entries.")
	// TCP transport hardening events.
	PvmReconnects = Default.Counter("opal_pvm_reconnects_total", "TCP sessions resumed after a broken connection.")
	PvmHeartbeats = Default.Counter("opal_pvm_heartbeats_total", "TCP heartbeats sent.")

	// Sciddle RPC plane, split by method.
	RPCLatency  = Default.HistogramVec("opal_sciddle_call_seconds", "Per-call latency from request send to reply receipt (virtual seconds on the simulated fabric).", "method", LatencyBuckets)
	RPCRetries  = Default.CounterVec("opal_sciddle_retries_total", "Idempotent request resends after a reply deadline expired.", "method")
	RPCTimeouts = Default.CounterVec("opal_sciddle_timeouts_total", "Reply deadline expiries; each one triggers a resend or, once retries are exhausted, a dead-server declaration.", "method")
	RPCBytesOut = Default.CounterVec("opal_sciddle_bytes_out_total", "Request bytes sent.", "method")
	RPCBytesIn  = Default.CounterVec("opal_sciddle_bytes_in_total", "Reply bytes received.", "method")

	// md engine step machinery.
	MDSteps          = Default.Counter("opal_md_steps_total", "Completed simulation steps.")
	MDStepSeconds    = Default.Histogram("opal_md_step_seconds", "Per-step duration (virtual seconds on the simulated fabric).", LatencyBuckets)
	MDUpdateSeconds  = Default.Histogram("opal_md_pairlist_update_seconds", "Pair-list update phase duration.", LatencyBuckets)
	PairlistUpdates  = Default.Counter("opal_pairlist_updates_total", "All-pairs pair-list updates (one per list and update phase).")
	PairlistRebuilds = Default.Counter("opal_pairlist_rebuilds_total", "Pair-list updates that had to rebuild the retained candidate list instead of filtering it.")
	MDCheckpointSecs = Default.Histogram("opal_md_checkpoint_seconds", "Checkpoint capture+sink duration (host wall seconds).", LatencyBuckets)
	MDCheckpoints    = Default.Counter("opal_md_checkpoints_total", "Periodic checkpoints written.")

	// Supervisor / recovery ladder.
	SupState    = Default.Gauge("opal_supervisor_state", "Supervisor rung: 0 healthy, 1 healing, 2 degraded.")
	SupDeaths   = Default.Counter("opal_supervisor_deaths_total", "Server deaths reported to the supervisor.")
	SupRespawns = Default.Counter("opal_supervisor_respawns_total", "Replacement servers spawned.")
	Recoveries  = Default.Counter("opal_md_recoveries_total", "Graceful-degradation recoveries (fleet shrunk onto survivors).")

	// Fault injection plane, split by kind.
	FaultsInjected = Default.CounterVec("opal_faults_injected_total", "Faults injected, by kind.", "kind")

	// Level-of-detail plane: phases replayed as analytic macro-events vs
	// phases that fell back to fine-grained execution (fault plane
	// active, kill window, non-quiescent kernel, missing dispatcher).
	LoDMacroPhases    = Default.Counter("opal_lod_macro_phases_total", "RPC phases replayed as analytic macro-events.")
	LoDFallbackPhases = Default.Counter("opal_lod_fallback_phases_total", "RPC phases that wanted macro replay but ran fine-grained.")

	// Journal plane.
	JournalDropped = Default.Counter("opal_journal_dropped_total", "Journal events dropped from the JSONL stream by the byte cap.")
	// Gauges mirror the journal's drop and dump state onto /metrics even
	// while the counter plane is gated off (Gauge.Set is ungated), so
	// byte-cap truncation and post-mortem dumps are visible to a scrape,
	// not just in code.
	JournalDroppedEvents = Default.Gauge("opal_journal_dropped_events", "Journal events dropped from the JSONL stream so far (byte cap).")
	FlightDumps          = Default.Gauge("opal_flight_dumps", "Flight-recorder dumps written so far (triggered and crash-path).")

	// Model oracle (internal/oracle): live predicted-vs-measured loop.
	OracleWindows   = Default.Counter("opal_oracle_windows_total", "Oracle windows evaluated (predicted vs measured).")
	OracleAnomalies = Default.CounterVec("opal_oracle_anomalies_total", "Oracle anomaly events, by model term.", "term")
	OracleResidual  = Default.FGaugeVec("opal_oracle_residual_seconds", "Latest per-window residual (measured minus predicted virtual seconds), by model term.", "term")
	OracleAbsResid  = Default.HistogramVec("opal_oracle_abs_residual_seconds", "Absolute per-window residual (virtual seconds), by model term.", "term", LatencyBuckets)
	OracleParam     = Default.FGaugeVec("opal_oracle_machine_param", "Latest recalibrated machine parameter value, by parameter name (a1, b1, a2, a3, a4, b5).", "param")
	OracleRecals    = Default.Counter("opal_oracle_recalibrations_total", "Successful sliding-window recalibrations.")
)
