// Command opald is the long-lived control-plane daemon: a multi-tenant
// HTTP/JSON service that executes instrumented Opal runs on a supervised
// worker pool and serves analytic model predictions from the calibrated
// platform tables.
//
//	opald -addr localhost:9901 -journal opald.jsonl
//
//	# submit a run (per-tenant admission control; 202 with a job ID)
//	curl -s -X POST -H 'X-Tenant: alice' localhost:9901/v1/runs \
//	  -d '{"size":"small","servers":4,"steps":20}'
//
//	# poll it
//	curl -s localhost:9901/v1/runs/job-000001
//
//	# ask the model what-if questions on the hot read path
//	curl -s 'localhost:9901/v1/predict?platform=sp2&size=small&servers=8&steps=100'
//
// SIGTERM (or SIGINT) drains gracefully: admission stops, in-flight runs
// finish or checkpoint at their next pair-list update boundary, the
// journal flushes, and the process exits 0.  The telemetry plane
// (/metrics, /healthz, /debug/pprof) rides on the same listener.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"opalperf/internal/ctlplane"
	"opalperf/internal/harness"
	"opalperf/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:9901", "listen address for the control-plane and telemetry API (port 0 picks a free one)")
		workers  = flag.Int("workers", 4, "worker goroutines executing runs")
		queueCap = flag.Int("queue-cap", 64, "bounded job queue capacity; submissions past it are shed with Retry-After")

		tenantRate  = flag.Float64("tenant-rate", 10, "run submissions per second each tenant may sustain")
		tenantBurst = flag.Float64("tenant-burst", 20, "run submission burst depth per tenant")
		tenantJobs  = flag.Int("tenant-jobs", 8, "concurrent accepted jobs per tenant (0 = unlimited)")

		predictRate  = flag.Float64("predict-rate", 2000, "predictions per second each tenant may sustain")
		predictBurst = flag.Float64("predict-burst", 4000, "prediction burst depth per tenant")

		jobDeadline = flag.Duration("job-deadline", 2*time.Minute, "wall-clock deadline per job execution (-1ns disables)")

		maxSteps   = flag.Int("max-steps", 10000, "largest step count a submission may request")
		maxServers = flag.Int("max-servers", 64, "largest server count a submission may request")

		journal   = flag.String("journal", "", "append a JSONL journal of service and run lifecycle events to this file")
		flightN   = flag.Int("flight", 256, "flight-recorder depth: last N journal events dumped to stderr on crash")
		jMaxBytes = flag.Int64("journal-max-bytes", 0, "cap the JSONL journal file at this many bytes (0 = unbounded)")

		archiveDir = flag.String("archive", "", "persistent run archive directory: completed results survive restarts (duplicates served without re-execution), journal events and run summaries are warehoused for opalquery")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "opald: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	telemetry.SetEnabled(true)
	telemetry.SetRun(telemetry.NewRunID())
	rec, err := harness.StartRecording(*journal, *flightN, *jMaxBytes, *archiveDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opald: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "opald: closing the journal and archive: %v\n", err)
		}
	}()

	srv := ctlplane.New(ctlplane.Config{
		Workers:      *workers,
		QueueCap:     *queueCap,
		TenantRate:   *tenantRate,
		TenantBurst:  *tenantBurst,
		TenantJobs:   *tenantJobs,
		PredictRate:  *predictRate,
		PredictBurst: *predictBurst,
		JobDeadline:  *jobDeadline,
		Limits:       ctlplane.Limits{MaxSteps: *maxSteps, MaxServers: *maxServers},
		Archive:      rec.Archive,
	})
	srv.Start()

	// Catch signals before announcing readiness: supervisors SIGTERM as
	// soon as they see the ready line, and a signal landing before
	// Notify would kill the process with the drain skipped.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)

	// Bind before announcing readiness; a taken port is a clear, early
	// exit rather than a half-started daemon.
	bound, stopHTTP, err := telemetry.Serve(*addr, srv.Handler())
	if err != nil {
		fmt.Fprintf(os.Stderr, "opald: cannot bind control-plane address %q: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Printf("opald: serving /v1/runs, /v1/predict, /metrics, /healthz on http://%s\n", bound)

	sig := <-sigC
	fmt.Printf("opald: %s received, draining\n", sig)

	// Graceful drain: stop admitting (new submissions shed as
	// "draining"), let accepted jobs finish or checkpoint at their next
	// pair-list boundary, then tear the listener down and close the
	// journal and archive via the deferred Close.
	srv.Drain()
	stopHTTP()
	fmt.Println("opald: drained, exiting")
}
