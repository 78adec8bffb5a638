package pvm

import (
	"fmt"
	"time"

	"opalperf/internal/hpm"
	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// SimVM is a PVM session on the simulated fabric: every task is a process
// of a discrete-event kernel configured with one platform's compute and
// communication cost models.  Running a program yields the virtual
// execution time that platform would have needed.
type SimVM struct {
	Kernel   *vm.Kernel
	Platform *platform.Platform
	Recorder *trace.Recorder
	// taskByID indexes tasks by proc ID (dense, 0-based) for the O(1)
	// lookups of the macro replay hot path.
	taskByID []*simTask
	// directs maps a server TID to its in-process dispatch entry and
	// macro holds the reusable scratch of the level-of-detail replay
	// engine (see macro.go).  Both are touched only while one process
	// holds the execution token, so they need no synchronization.
	directs map[int]DirectEntry
	macro   macroEngine
}

// NewSimVM creates a session for the given platform.  rec may be nil to
// disable segment tracing (per-task totals remain available via vm stats).
func NewSimVM(pl *platform.Platform, rec *trace.Recorder) *SimVM {
	return NewSimVMComm(pl, pl.CommModel(), rec)
}

// NewSimVMComm creates a session with an explicit communication cost
// model — e.g. a platform.TwoTierComm for clusters of SMP nodes — while
// keeping the platform's compute model and counter weights.
func NewSimVMComm(pl *platform.Platform, comm vm.CommModel, rec *trace.Recorder) *SimVM {
	var tr vm.Tracer
	if rec != nil {
		tr = rec
	}
	return &SimVM{
		Kernel:   vm.NewKernel(comm, tr),
		Platform: pl,
		Recorder: rec,
	}
}

// SetFaults installs a fault model on the underlying kernel (see
// vm.FaultModel; internal/fault.Plan is the seeded implementation).  Must
// be called before Run; nil disables injection.
func (s *SimVM) SetFaults(fm vm.FaultModel) { s.Kernel.SetFaults(fm) }

// SpawnRoot registers a root task before Run.
func (s *SimVM) SpawnRoot(name string, fn func(Task)) int {
	t := &simTask{vm: s, parent: -1, instance: 0}
	t.proc = s.Kernel.NewProc(name, s.Platform.ComputeModel(), func(p *vm.Proc) {
		fn(t)
	})
	t.mon = hpm.NewMonitor(s.Platform.Weights)
	s.register(t)
	return t.proc.ID()
}

// register records a new task in the dense by-ID index.
func (s *SimVM) register(t *simTask) {
	id := t.proc.ID()
	for len(s.taskByID) <= id {
		s.taskByID = append(s.taskByID, nil)
	}
	s.taskByID[id] = t
}

// Run executes the session to completion.
func (s *SimVM) Run() error { return s.Kernel.Run() }

// Time returns the virtual makespan after Run.
func (s *SimVM) Time() float64 { return s.Kernel.MaxTime() }

// Task returns the task with the given TID, or nil.
func (s *SimVM) Task(tid int) Task {
	if t := s.task(tid); t != nil {
		return t
	}
	return nil
}

// task is the concrete-typed lookup used by the macro replay hot path.
func (s *SimVM) task(tid int) *simTask {
	if tid < 0 || tid >= len(s.taskByID) {
		return nil
	}
	return s.taskByID[tid]
}

type simTask struct {
	vm       *SimVM
	proc     *vm.Proc
	mon      *hpm.Monitor
	parent   int
	instance int
}

func (t *simTask) TID() int      { return t.proc.ID() }
func (t *simTask) Parent() int   { return t.parent }
func (t *simTask) Name() string  { return t.proc.Name() }
func (t *simTask) Instance() int { return t.instance }
func (t *simTask) Now() float64  { return t.proc.Now() }

func (t *simTask) Monitor() *hpm.Monitor { return t.mon }

func (t *simTask) Send(dst, tag int, b *Buffer) {
	if b.sent {
		// The same buffer object is being delivered a second time; its
		// receivers need independent unpack cursors.
		b.shared = true
	}
	b.sent = true
	n := b.Bytes()
	telemetry.RecordSend(t.TID(), dst, uint64(n))
	t.proc.Send(dst, tag, b, n)
}

func (t *simTask) Mcast(dsts []int, tag int, b *Buffer) {
	if len(dsts) > 1 || b.sent {
		b.shared = true
	}
	b.sent = true
	n := b.Bytes()
	for _, d := range dsts {
		telemetry.RecordSend(t.TID(), d, uint64(n))
		t.proc.Send(d, tag, b, n)
	}
}

func (t *simTask) Recv(src, tag int) (*Buffer, int, int) {
	m := t.proc.RecvSrcTag(src, tag)
	b, ok := m.Payload.(*Buffer)
	if !ok {
		panic(fmt.Sprintf("pvm: non-buffer payload %T", m.Payload))
	}
	msrc, mtag := m.Src, m.Tag
	// The payload is extracted and the message was already removed from
	// the mailbox, so the kernel may reuse it for a future send.
	t.proc.Kernel().Recycle(m)
	if b.shared {
		// Multicast (or re-sent) buffers get a per-receiver cursor.
		return b.reader(), msrc, mtag
	}
	// Point-to-point: simulated tasks share one address space (like PVM
	// tasks on a shared-memory node), so the single receiver unpacks the
	// sender's buffer directly — no wrapper allocation.
	b.pos = 0
	return b, msrc, mtag
}

// RecvTimeout never fails: simulated messages are never lost (faults only
// stretch virtual time), so the deadline is moot — timeouts firing would
// break determinism.
func (t *simTask) RecvTimeout(src, tag int, _ time.Duration) (*Buffer, int, int, error) {
	b, s, g := t.Recv(src, tag)
	return b, s, g, nil
}

// ReportRecovery implements RecoveryReporter by attributing the window
// to the task's simulated timeline.
func (t *simTask) ReportRecovery(start, end float64) {
	if t.vm.Recorder != nil && end > start {
		t.vm.Recorder.Segment(t.TID(), t.Name(), vm.SegRecovery, start, end)
	}
}

// OpenWindow implements WindowReporter on the session's trace recorder.
func (t *simTask) OpenWindow(t0 float64) {
	if t.vm.Recorder != nil {
		t.vm.Recorder.OpenWindow(t0)
	}
}

// CloseWindow implements WindowReporter on the session's trace recorder.
func (t *simTask) CloseWindow(t1 float64) {
	if t.vm.Recorder != nil {
		t.vm.Recorder.CloseWindow(t1)
	}
}

// ReportFlow implements FlowReporter by recording the RPC flow on the
// session's trace recorder.
func (t *simTask) ReportFlow(method string, server int, issue, reply float64) {
	if t.vm.Recorder != nil {
		t.vm.Recorder.Flow(method, t.TID(), server, issue, reply)
	}
}

func (t *simTask) Probe(src, tag int) bool {
	return t.proc.ProbeSrcTag(src, tag)
}

func (t *simTask) Barrier(name string, parties int) {
	telemetry.PvmBarriers.Add(1)
	t.proc.Barrier(name, parties)
}

func (t *simTask) Spawn(name string, n int, fn func(Task)) []int {
	tids := make([]int, n)
	for i := 0; i < n; i++ {
		c := &simTask{vm: t.vm, parent: t.TID(), instance: i}
		c.mon = hpm.NewMonitor(t.vm.Platform.Weights)
		id := t.proc.Spawn(fmt.Sprintf("%s-%d", name, i), t.vm.Platform.ComputeModel(), func(p *vm.Proc) {
			fn(c)
		})
		// The proc exists as soon as Spawn returns, before the child
		// first runs, so the TID is immediately usable.
		c.proc = t.vm.Kernel.Proc(id)
		t.vm.register(c)
		tids[i] = id
	}
	return tids
}

func (t *simTask) Charge(counter string, ops hpm.Ops) {
	counted := t.vm.Platform.Weights.Counted(ops)
	t0 := t.proc.Now()
	t.proc.Compute(counted)
	t.mon.Charge(counter, ops, t.proc.Now()-t0)
}

func (t *simTask) SetWorkingSet(bytes int) { t.proc.SetWorkingSet(bytes) }
