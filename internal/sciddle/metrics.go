package sciddle

import (
	"fmt"
	"strings"

	"opalperf/internal/trace"
)

// High-level middleware metrics (Section 3.3): "in the parallel
// programming framework Sciddle was conceived for, it might be easy to
// measure ... high level metrics like server computation rate, client
// computation rate ..., but low level indicators like communication
// efficiency, idle times, and load imbalance ... are much harder to get."
// With the accounting barriers in place, all of them fall out of a run's
// breakdown; Metrics packages them.

// Metrics summarizes one instrumented client-server run.
type Metrics struct {
	// Wall is the measured wall-clock (virtual) time of the window.
	Wall float64
	// ClientComputeShare is the fraction of the wall clock the client
	// spent computing.
	ClientComputeShare float64
	// ServerComputeShare is the mean fraction of the wall clock a server
	// spent computing (the "server computation rate" in time terms).
	ServerComputeShare float64
	// CommShare is the communication share of the wall clock.  It stands
	// in for the communication efficiency (payload time over total
	// communication time), which would need the byte volume and the
	// platform's key data to split.
	CommShare float64
	// LoadImbalance is (max-mean)/mean over server compute times.
	LoadImbalance float64
	// SyncShare is the barrier share of the wall clock.
	SyncShare float64
	// IdleShare is the unaccounted residual share.
	IdleShare float64
}

// MetricsOf derives the middleware metrics from a run window's breakdown,
// as harness.Run reports it.
func MetricsOf(b trace.Breakdown) Metrics {
	wall := b.Wall
	m := Metrics{Wall: wall}
	if wall <= 0 {
		return m
	}
	m.ClientComputeShare = b.SeqComp / wall
	m.ServerComputeShare = b.ParComp / wall
	m.CommShare = b.Comm / wall
	m.SyncShare = b.Sync / wall
	m.IdleShare = b.Idle / wall
	m.LoadImbalance = b.Imbalance()
	return m
}

// String renders the metrics as the middleware would report them.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "middleware metrics over %.4gs:\n", m.Wall)
	fmt.Fprintf(&sb, "  server computation %5.1f%%   client computation %5.1f%%\n",
		100*m.ServerComputeShare, 100*m.ClientComputeShare)
	fmt.Fprintf(&sb, "  communication      %5.1f%%   synchronization    %5.1f%%\n",
		100*m.CommShare, 100*m.SyncShare)
	fmt.Fprintf(&sb, "  idle               %5.1f%%   load imbalance     %5.1f%%\n",
		100*m.IdleShare, 100*m.LoadImbalance)
	return sb.String()
}
