package ctlplane

import "opalperf/internal/telemetry"

// Control-plane instruments, registered on the default telemetry
// registry so opald's /metrics carries them next to the run-level
// instruments of the jobs it executes.
var (
	mQueueDepth  = telemetry.Default.Gauge("opal_ctl_queue_depth", "Jobs admitted but not yet started.")
	mJobsRunning = telemetry.Default.Gauge("opal_ctl_jobs_running", "Jobs currently executing on the worker pool.")

	mAccepted     = telemetry.Default.Counter("opal_ctl_jobs_accepted_total", "Run submissions admitted to the queue.")
	mCoalesced    = telemetry.Default.Counter("opal_ctl_jobs_coalesced_total", "Run submissions deduplicated onto an existing execution or a cached result or failure.")
	mShed         = telemetry.Default.CounterVec("opal_ctl_shed_total", "Run submissions shed at admission, by reason.", "reason")
	mDone         = telemetry.Default.Counter("opal_ctl_jobs_done_total", "Jobs completed with a result.")
	mFailed       = telemetry.Default.Counter("opal_ctl_jobs_failed_total", "Job executions that failed: a run error or panic, whose failure later submissions of the spec are served, or a deadline overrun, which reruns on resubmission.")
	mCheckpointed = telemetry.Default.Counter("opal_ctl_jobs_checkpointed_total", "Jobs checkpointed by a graceful drain.")

	mWorkerCrashes  = telemetry.Default.Counter("opal_ctl_worker_crashes_total", "Worker goroutines that died mid-job (panic or kill).")
	mWorkerRespawns = telemetry.Default.Counter("opal_ctl_worker_respawns_total", "Replacement workers spawned by the pool supervisor.")

	mPredicts       = telemetry.Default.Counter("opal_ctl_predicts_total", "Model predictions served.")
	mPredictSeconds = telemetry.Default.Histogram("opal_ctl_predict_seconds", "Host latency of the /predict read path.", telemetry.LatencyBuckets)
	mJobSeconds     = telemetry.Default.Histogram("opal_ctl_job_seconds", "Host wall time of one job execution attempt.", telemetry.LatencyBuckets)

	// Per-tenant SLO instruments: who was admitted, shed and completed,
	// how long each tenant's jobs waited in the queue and ran.  The
	// tenant label comes from the submission, not the canonical spec,
	// so coalesced executions still attribute to every submitting tenant's
	// admission counters while the single execution bills its runner.
	mTenantAdmitted   = telemetry.Default.CounterVec("opal_ctl_tenant_admitted_total", "Run submissions admitted to the queue, by tenant.", "tenant")
	mTenantShed       = telemetry.Default.CounterVec("opal_ctl_tenant_shed_total", "Run submissions shed at admission, by tenant.", "tenant")
	mTenantDone       = telemetry.Default.CounterVec("opal_ctl_tenant_completed_total", "Jobs completed with a result, by submitting tenant (restored from the archive across restarts).", "tenant")
	mQueueWait        = telemetry.Default.HistogramVec("opal_ctl_queue_wait_seconds", "Host wall time a job spent queued before a worker picked it up, by tenant.", "tenant", telemetry.LatencyBuckets)
	mTenantJobSeconds = telemetry.Default.HistogramVec("opal_ctl_tenant_job_seconds", "Host wall time of one job execution attempt, by tenant.", "tenant", telemetry.LatencyBuckets)
)
