//go:build unix

package opalperf

import (
	"syscall"
	"testing"
	"time"

	"opalperf/internal/stats"
)

// cpuTime returns the process's cumulative user+system CPU time.  The
// overhead benches compare variants in CPU time, not wall time: a
// percent-level signal on a shared host is unrecoverable from wall
// clocks (co-tenant load adds tens of milliseconds of one-sided, bursty
// noise per run), but preemption never charges CPU time to this
// process, so the rusage delta isolates the work actually added.
// Unix-only for that reason.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pairedOverheadPercent estimates the relative steady-state CPU cost of
// an armed variant over a bare one: each pair runs both variants
// back-to-back in alternating order and contributes one armed−bare
// delta, and the estimate is 100·median(delta)/median(bare).
//
// The paired median replaced the earlier min-of-each-side estimator.
// The minimum pairs the luckiest armed run against the luckiest bare
// run, which may be many iterations apart — so a GC cycle landing in
// only one variant's window of the wrong iteration swung the reported
// overhead by −4% to +8% across repeats of an unchanged binary, far
// outside the 2% budgets the estimate guards.  Pairing cancels
// slowly-varying host pressure (both sides of a pair see it), the
// median discards burst outliers on either side symmetrically, and
// alternating the order each pair keeps GC debt charged evenly.  The
// floor of 31 pairs guarantees a stable (odd-count) median when the
// framework settles on a small b.N; pairs beyond b.N run off-timer so
// ns/op stays honest.
func pairedOverheadPercent(b *testing.B, bare, armed func()) float64 {
	const minPairs = 31
	n := b.N
	if n < minPairs {
		n = minPairs
	}
	deltas := make([]float64, 0, n)
	bares := make([]float64, 0, n)
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if i == b.N {
			b.StopTimer()
		}
		var tb, ta time.Duration
		if i%2 == 0 {
			t0 := cpuTime(b)
			bare()
			t1 := cpuTime(b)
			armed()
			tb, ta = t1-t0, cpuTime(b)-t1
		} else {
			t0 := cpuTime(b)
			armed()
			t1 := cpuTime(b)
			bare()
			ta, tb = t1-t0, cpuTime(b)-t1
		}
		deltas = append(deltas, (ta - tb).Seconds())
		bares = append(bares, tb.Seconds())
	}
	mb := stats.Median(bares)
	if mb <= 0 {
		return 0
	}
	return 100 * stats.Median(deltas) / mb
}
