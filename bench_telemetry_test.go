//go:build unix

package opalperf

import (
	"io"
	"testing"

	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures the steady-state host cost of the
// telemetry plane on a fault-free parallel run: metrics registry armed,
// run journal streaming to a discard writer, flight recorder live AND
// the comm-matrix instrument recording every send, versus the same run
// with telemetry disabled (every instrument call reduced to one atomic
// load and a predicted branch).  The reported overhead% guards the <2%
// budget of the observability plane; the CI telemetry-budget job fails
// when it is exceeded.
//
// Estimation is the paired-median rusage comparison shared with
// BenchmarkSupervisionOverhead — see pairedOverheadPercent for why CPU
// time and the median of paired deltas.
func BenchmarkTelemetryOverhead(b *testing.B) {
	sys := benchSystem("medium")
	spec := harness.RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts:     md.Options{Cutoff: harness.EffectiveCutoff, UpdateEvery: 2, Minimize: true},
		Servers:  2,
		Steps:    40,
	}

	run := func(enabled bool) func() {
		return func() {
			spec := spec
			if enabled {
				telemetry.SetEnabled(true)
				telemetry.StartJournal(io.Discard, 256)
				spec.Scope = &telemetry.Scope{Matrix: new(telemetry.Matrix)}
			}
			if _, err := harness.Run(spec); err != nil {
				b.Fatal(err)
			}
			if enabled {
				telemetry.SetEnabled(false)
				telemetry.StopJournal()
			}
		}
	}
	b.ReportMetric(pairedOverheadPercent(b, run(false), run(true)), "overhead%")
}
