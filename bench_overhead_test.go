//go:build unix

package opalperf

import (
	"io"
	"testing"

	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
)

// BenchmarkSupervisionOverhead measures the steady-state host cost of
// arming the recovery machinery on a fault-free run: self-healing
// supervision plus periodic crash-consistent checkpointing, versus the
// same run bare.  The armed run's extra work is the boundary-coordinate
// mirror, the supervisor bookkeeping and one snapshot serialization per
// checkpoint interval; the reported overhead% must stay under the
// recovery plane's <2% budget over the PR 1 baseline, enforced by the
// supervision-budget make target.  Estimation is the paired-median
// rusage comparison shared with BenchmarkTelemetryOverhead — see
// pairedOverheadPercent for why.
func BenchmarkSupervisionOverhead(b *testing.B) {
	sys := paper.BenchScale().Sizes["medium"]
	bare := harness.RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts:     md.Options{Cutoff: harness.EffectiveCutoff, UpdateEvery: 2, Minimize: true},
		Servers:  2,
		Steps:    40,
	}
	armed := bare
	armed.Opts.SelfHeal = true
	armed.Opts.CheckpointEvery = 20
	armed.Opts.CheckpointSink = func(cp *md.Checkpoint) error { return cp.Write(io.Discard) }

	run := func(s harness.RunSpec) func() {
		return func() {
			if _, err := harness.Run(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(pairedOverheadPercent(b, run(bare), run(armed)), "overhead%")
}
