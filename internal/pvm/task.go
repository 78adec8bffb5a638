package pvm

import (
	"time"

	"opalperf/internal/hpm"
)

// Task is one PVM task.  Both fabrics implement it; application code (the
// Opal client and servers, the Sciddle runtime) is written against this
// interface only and therefore runs unchanged on a simulated Cray J90 and
// on the real goroutines of a network session.
type Task interface {
	// TID returns the task id.
	TID() int
	// Parent returns the TID of the spawning task, or -1 for a root task.
	Parent() int
	// Name returns the task name.
	Name() string

	// Send transmits the buffer to task dst with the given tag.
	Send(dst, tag int, b *Buffer)
	// Mcast transmits the buffer to every listed task.
	Mcast(dsts []int, tag int, b *Buffer)
	// Recv blocks for the next message matching (src, tag); wildcards
	// AnySrc/AnyTag apply.  It returns the buffer and the actual source
	// and tag.
	Recv(src, tag int) (*Buffer, int, int)
	// RecvTimeout is Recv with a deadline.  On the network fabric the
	// timeout is real (ErrRecvTimeout) and a partitioned session returns
	// its error immediately; on the simulated fabric messages cannot be
	// lost, so the call waits like Recv and never fails — which keeps code
	// written against it (the Sciddle call-timeout path) deterministic
	// when simulated.  d <= 0 waits indefinitely.
	RecvTimeout(src, tag int, d time.Duration) (*Buffer, int, int, error)
	// Probe reports whether a matching message is queued, without
	// blocking or consuming it.
	Probe(src, tag int) bool
	// Barrier blocks until parties tasks have entered the barrier with
	// the same name.
	Barrier(name string, parties int)

	// Spawn starts n child tasks running fn and returns their TIDs, like
	// pvm_spawn starting n instances of an executable.  Each child gets
	// its instance index via Instance().
	Spawn(name string, n int, fn func(Task)) []int
	// Instance returns this task's spawn instance index (0 for roots).
	Instance() int

	// Charge accounts floating-point work under the named HPM counter.
	// On the simulated fabric it advances virtual time per the platform
	// model; on the network fabric it attributes the real time since the
	// task's previous charge or receive.
	Charge(counter string, ops hpm.Ops)
	// SetWorkingSet declares the current working-set size in bytes for
	// the memory-hierarchy model.
	SetWorkingSet(bytes int)
	// Now returns the task's current time in seconds (virtual on the
	// simulated fabric, real since session start on the network fabric).
	Now() float64
	// Monitor returns the task's hardware performance monitor.
	Monitor() *hpm.Monitor
}

// RecoveryReporter is the optional capability to attribute a time window
// — e.g. the client-side re-initialization after a server death — to the
// task's recorded timeline as recovery (vm.SegRecovery).
type RecoveryReporter interface {
	ReportRecovery(start, end float64)
}

// ReportRecovery attributes [start, end] as recovery time on fabrics that
// record timelines, and is a no-op elsewhere.
func ReportRecovery(t Task, start, end float64) {
	if rr, ok := t.(RecoveryReporter); ok {
		rr.ReportRecovery(start, end)
	}
}

// WindowReporter is the optional capability to bound the run's measurement
// window on the task's trace recorder, which then sums the window as it
// records (trace.Recorder.OpenWindow/CloseWindow).
type WindowReporter interface {
	OpenWindow(t0 float64)
	CloseWindow(t1 float64)
}

// OpenWindow opens the measurement window at t0 on fabrics that record
// timelines, and is a no-op elsewhere.
func OpenWindow(t Task, t0 float64) {
	if wr, ok := t.(WindowReporter); ok {
		wr.OpenWindow(t0)
	}
}

// CloseWindow closes the measurement window at t1 on fabrics that record
// timelines, and is a no-op elsewhere.
func CloseWindow(t Task, t1 float64) {
	if wr, ok := t.(WindowReporter); ok {
		wr.CloseWindow(t1)
	}
}

// FlowReporter is the optional capability to record one client→server RPC
// flow — method name, the server task it executed on, the issue and reply
// times — on the task's trace recorder, linking the client's call span to
// the matching server execution span.
type FlowReporter interface {
	ReportFlow(method string, server int, issue, reply float64)
}

// ReportFlow records an RPC flow on fabrics that record timelines, and is
// a no-op elsewhere.
func ReportFlow(t Task, method string, server int, issue, reply float64) {
	if fr, ok := t.(FlowReporter); ok {
		fr.ReportFlow(method, server, issue, reply)
	}
}
