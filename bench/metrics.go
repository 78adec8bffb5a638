package main

// The metric tables are the single source of the names, units, directions
// and bounds the benchmark prints; BENCHMARK.json repeats them for the
// driver and bench_test.go asserts the two agree.

// endToEnd describes one gated end-to-end metric.  Bound is the share of
// the baseline's value by which the metric may worsen before -compare (and
// the driver) calls it a regression.
type endToEnd struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEndMetrics are what a user of opalperf sees: how long until the
// first result, how many results per second, how long one takes and what it
// costs in CPU.  Every bound is the contract's ceiling, not the 10 % the
// issue asked for, because the host they were measured on is not that
// steady: see "Bounds and measured spread" in README.md.
//
// Three more end-to-end numbers are printed but not gated here.
// failed_share is 0 on a healthy tree, and the driver's contract wants
// metrics that are never 0, so it travels as the failed/attempted pair of
// the result line and -compare fails on any rise.  op.p95_ms and
// process.peak_rss_mb did not repeat well enough to gate (inter-quartile
// spreads of 20 % and 28 % on their worst workload) and are reported from
// the traced run with the per-layer metrics.
var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// layerKind says how -compare treats a per-layer metric.
type layerKind int

const (
	// timing metrics are host-clock measurements: printed, never failed.
	timing layerKind = iota
	// count metrics are deterministic for a given seed and must repeat
	// exactly between two reports.
	count
)

// perLayer describes one per-layer metric of the traced run.
type perLayer struct {
	Name   string
	Unit   string
	Better string
	Kind   layerKind
}

// perLayerMetrics is the ladder: for every module on some workload's hot
// path, a unit cost measured by calling its public API directly, and the
// exact number of units one op consumes.  A metric that does not apply to
// a workload (a span of the HTTP client on an in-process workload, a
// message count where no simulation runs) reads 0 there.
var perLayerMetrics = []perLayer{
	{"vm.roundtrip_ns", "ns", "lower", timing},

	{"pvm.pack_ns_per_kb", "ns/KB", "lower", timing},
	{"pvm.unpack_ns_per_kb", "ns/KB", "lower", timing},
	{"pvm.sim_roundtrip_ns", "ns", "lower", timing},
	{"pvm.msgs_per_op", "count", "lower", count},
	{"pvm.bytes_per_op", "B", "lower", count},

	{"sciddle.phase_fine_us", "us", "lower", timing},
	{"sciddle.phase_macro_us", "us", "lower", timing},
	{"sciddle.macro_phases_per_op", "count", "higher", count},
	{"sciddle.fallback_phases_per_op", "count", "lower", count},
	{"sciddle.macro_share", "ratio", "higher", count},

	{"forcefield.ns_per_pair", "ns", "lower", timing},
	{"forcefield.pairs_per_op", "count", "lower", count},

	{"pairlist.update_ns_per_check", "ns", "lower", timing},
	{"pairlist.checks_per_op", "count", "lower", count},

	{"md.serial_step_ms", "ms", "lower", timing},
	{"md.host_us_per_step", "us", "lower", timing},

	{"trace.segment_ns", "ns", "lower", timing},
	{"trace.reduce_ms", "ms", "lower", timing},
	{"trace.segments_per_op", "count", "lower", count},

	{"harness.frontdoor_ms", "ms", "lower", timing},
	{"harness.frontdoor_share", "ratio", "lower", timing},

	{"telemetry.emit_ns", "ns", "lower", timing},
	{"telemetry.journal_bytes_per_op", "B", "lower", timing},

	{"archive.append_us", "us", "lower", timing},
	{"archive.append_sync_ms", "ms", "lower", timing},
	{"archive.summaries_ms", "ms", "lower", timing},
	{"archive.open_ms", "ms", "lower", timing},
	{"archive.bytes_per_op", "B", "lower", timing},

	{"core.predict_ns", "ns", "lower", timing},
	{"core.machinefor_us", "us", "lower", timing},

	{"ctlplane.canon_hash_ns", "ns", "lower", timing},
	{"ctlplane.submit_us", "us", "lower", timing},
	{"ctlplane.submit_dup_us", "us", "lower", timing},
	{"ctlplane.predict_handler_us", "us", "lower", timing},
	{"ctlplane.predict_cold_ms", "ms", "lower", timing},

	{"ctlplane.queue_wait_ms_mean", "ms", "lower", timing},
	{"ctlplane.job_ms_mean", "ms", "lower", timing},
	{"ctlplane.predict_server_us_mean", "us", "lower", timing},
	{"ctlplane.coalesced_share", "ratio", "higher", count},
	{"ctlplane.retries_per_op", "count", "lower", count},
	{"ctlplane.shed_per_op", "count", "lower", count},
	{"opald.gc_pause_ms_per_s", "ms/s", "lower", timing},
	{"opald.heap_mb", "MB", "lower", timing},

	{"svc.submit_ms_p50", "ms", "lower", timing},
	{"svc.wait_ms_p50", "ms", "lower", timing},
	{"svc.fetch_ms_p50", "ms", "lower", timing},
	{"svc.dup_ms_p50", "ms", "lower", timing},
	{"svc.polls_per_op", "count", "lower", timing},
	{"svc.poll_lateness_us", "us", "lower", timing},
	{"svc.http_overhead_us", "us", "lower", timing},
	{"svc.predict_p99_ms", "ms", "lower", timing},

	{"op.p95_ms", "ms", "lower", timing},
	{"process.peak_rss_mb", "MB", "lower", timing},
	{"go.allocs_per_op", "count", "lower", timing},
	{"go.bytes_per_op", "B", "lower", timing},
	{"go.gc_cpu_share", "ratio", "lower", timing},
	{"trace_overhead_share", "ratio", "lower", timing},

	{"budget.vm", "ratio", "lower", timing},
	{"budget.forcefield", "ratio", "lower", timing},
	{"budget.pairlist", "ratio", "lower", timing},
	{"budget.trace", "ratio", "lower", timing},
	{"budget.frontdoor", "ratio", "lower", timing},
	{"budget.unattributed", "ratio", "lower", timing},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile or median
	// (0 for totals and ratios).
	Samples int `json:"samples,omitempty"`
}
