package pvm

import (
	"fmt"
	"strconv"
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
	// macro holds the reusable scratch of the level-of-detail replay
	// engine (see macro.go), touched only while one process holds the
	// execution token, so it needs no synchronization.
	macro macroEngine
	// helper runs server handlers ahead of their turn (see ahead.go).
	helper helper
	// scope is the run's telemetry (SetScope), never nil.
	scope *telemetry.Scope
}

// NewSimVM creates a session for the given platform.  rec may be nil to
// disable segment tracing: the kernel's per-task Stats and its measurement
// window (vm.Kernel.HoldWindow) need no recorder.
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
		scope:    &telemetry.Scope{ID: telemetry.Run()},
	}
}

// SetScope makes sc the session's run telemetry, before Run: its matrix,
// if any, books the session's sends, RPC latencies and traced segments,
// and the engines running on the session reach it through ScopeOf.  A
// session is born with a scope of its own, stamped with the process run
// ID.
func (s *SimVM) SetScope(sc *telemetry.Scope) {
	s.scope = sc
	if s.Recorder != nil {
		s.Recorder.SetMatrix(sc.Matrix)
	}
}

// ScopeOf returns the telemetry scope of t's run: its simulated session's,
// or for a task of another fabric a fresh one stamped with the process run
// ID and without a matrix.
func ScopeOf(t Task) *telemetry.Scope {
	if st, ok := t.(*simTask); ok {
		return st.vm.scope
	}
	return &telemetry.Scope{ID: telemetry.Run()}
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

// Run executes the session to completion.  However it returns — done, in
// a DeadlockError or with a task's panic — no handler started ahead is
// still running and the session's helper goroutine has exited.
func (s *SimVM) Run() error {
	s.helper.begin()
	defer s.helper.stop()
	return s.Kernel.Run()
}

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
	ahead    lane       // run-ahead handle (ahead.go)
	reactor  simReactor // the program Drive hands the kernel, if any
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
	telemetry.RecordSend(t.vm.scope.Matrix, t.TID(), dst, uint64(n))
	t.proc.Send(dst, tag, b, n)
}

func (t *simTask) Mcast(dsts []int, tag int, b *Buffer) {
	if len(dsts) > 1 || b.sent {
		b.shared = true
	}
	b.sent = true
	n := b.Bytes()
	for _, d := range dsts {
		telemetry.RecordSend(t.vm.scope.Matrix, t.TID(), d, uint64(n))
		t.proc.Send(d, tag, b, n)
	}
}

func (t *simTask) Recv(src, tag int) (*Buffer, int, int) {
	return t.deliver(t.proc.RecvSrcTag(src, tag))
}

// deliver hands the receiver a delivered message's buffer, source and tag,
// and returns the message to the kernel's freelist.
func (t *simTask) deliver(m *vm.Message) (*Buffer, int, int) {
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

// simReactor is a task's Reactor as the kernel steps it (Drive): each
// step completes the last wait through the task's own calls — the send
// whose turn came, the message a receive delivered — and posts the
// reactor's next wait as the matching kernel wait.  A receive's deadline
// is moot here, as in RecvTimeout.
type simReactor struct {
	t   *simTask
	r   Reactor
	out Wait // a send waiting for the task's turn
}

func (s *simReactor) Step(_ *vm.Proc, m *vm.Message) vm.Wait {
	var b *Buffer
	src := -1
	if s.out.op == waitSend {
		s.t.Send(s.out.peer, s.out.tag, s.out.buf)
		s.out = Wait{}
	} else if m != nil {
		b, src, _ = s.t.deliver(m)
	}
	w := s.r.Next(b, src)
	switch w.op {
	case waitRecv:
		return vm.RecvWait(w.peer, w.tag)
	case waitSend:
		s.out = w
		return vm.TurnWait()
	case waitBarrier:
		telemetry.PvmBarriers.Add(1)
		return vm.BarrierWait(w.name, w.parties)
	}
	return vm.Wait{}
}

// RecvTimeout never fails: simulated messages are never lost (faults only
// stretch virtual time), so the deadline is moot — timeouts firing would
// break determinism.
func (t *simTask) RecvTimeout(src, tag int, _ time.Duration) (*Buffer, int, int, error) {
	b, s, g := t.Recv(src, tag)
	return b, s, g, nil
}

// ReportRecovery attributes [start, end] — e.g. the client-side
// re-initialization after a server death — to t as recovery
// (vm.SegRecovery), in its kernel's measurement window and on the
// session's recorder (vm.Proc.Attribute).  A no-op on a task that is not a
// simulated one (another fabric's, or one behind a wrapper).
func ReportRecovery(t Task, start, end float64) {
	if st, ok := t.(*simTask); ok {
		st.proc.Attribute(vm.SegRecovery, start, end)
	}
}

// OpenWindow opens the run's measurement window at t0 on t's kernel, which
// then sums the window as it books segments (vm.Kernel.OpenWindow) if it
// was told to hold one.  A no-op where ReportRecovery is one.
func OpenWindow(t Task, t0 float64) {
	if st, ok := t.(*simTask); ok {
		st.vm.Kernel.OpenWindow(t0)
	}
}

// CloseWindow closes the measurement window at t1 on t's kernel.  A no-op
// where ReportRecovery is one.
func CloseWindow(t Task, t1 float64) {
	if st, ok := t.(*simTask); ok {
		st.vm.Kernel.CloseWindow(t1)
	}
}

// ReportFlow records one client→server RPC flow — method name, the server
// task it executed on, the issue and reply times — on the run's
// telemetry: its latency on the comm matrix, and its flow on the trace
// recorder, linking the client's call span to the matching server
// execution span.  A no-op on a task that is not a simulated one.
func ReportFlow(t Task, method string, server int, issue, reply float64) {
	st, ok := t.(*simTask)
	if !ok {
		return
	}
	if m := st.vm.scope.Matrix; m != nil {
		m.RecordLatency(st.TID(), server, reply-issue)
	}
	if st.vm.Recorder != nil {
		st.vm.Recorder.Flow(method, st.TID(), server, issue, reply)
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
		// Not fmt.Sprintf: fmt's printer pool refills after every garbage
		// collection, which would make a run's allocations depend on
		// where a collection lands.
		id := t.proc.Spawn(name+"-"+strconv.Itoa(i), t.vm.Platform.ComputeModel(), func(p *vm.Proc) {
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
