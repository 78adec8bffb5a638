package pvm

import (
	"fmt"
	"sync"
	"time"

	"opalperf/internal/hpm"
	"opalperf/internal/telemetry"
)

// LocalVM is a PVM session on the local fabric: tasks are real goroutines,
// messages travel through mutex-protected mailboxes and time is wall-clock
// time.  It exists for functional testing (including under -race) and for
// running the parallel Opal engine for real on the host.
type LocalVM struct {
	mu       sync.Mutex
	tasks    []*localTask
	barriers map[string]*localBarrier
	start    time.Time
	wg       sync.WaitGroup
}

// NewLocalVM creates an empty local session.
func NewLocalVM() *LocalVM {
	return &LocalVM{
		barriers: make(map[string]*localBarrier),
		start:    time.Now(),
	}
}

// SpawnRoot starts a root task immediately and returns its TID.
func (l *LocalVM) SpawnRoot(name string, fn func(Task)) int {
	return l.spawn(name, -1, 0, fn)
}

// Wait blocks until every task (including ones spawned later) finishes.
func (l *LocalVM) Wait() { l.wg.Wait() }

func (l *LocalVM) spawn(name string, parent, instance int, fn func(Task)) int {
	l.mu.Lock()
	t := &localTask{
		vm:       l,
		tid:      len(l.tasks),
		name:     name,
		parent:   parent,
		instance: instance,
		mon:      hpm.NewMonitor(hpm.CanonicalWeights()),
		lastMark: time.Now(),
	}
	t.cond = sync.NewCond(&t.mu)
	l.tasks = append(l.tasks, t)
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn(t)
	}()
	return t.tid
}

func (l *LocalVM) task(tid int) *localTask {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tid < 0 || tid >= len(l.tasks) {
		return nil
	}
	return l.tasks[tid]
}

type localMsg struct {
	src, tag int
	buf      *Buffer
}

type localTask struct {
	vm       *LocalVM
	tid      int
	name     string
	parent   int
	instance int
	mon      *hpm.Monitor

	mu      sync.Mutex
	cond    *sync.Cond
	mailbox []localMsg

	lastMark time.Time // boundary for Charge time attribution
}

func (t *localTask) TID() int      { return t.tid }
func (t *localTask) Parent() int   { return t.parent }
func (t *localTask) Name() string  { return t.name }
func (t *localTask) Instance() int { return t.instance }

func (t *localTask) Now() float64 {
	return time.Since(t.vm.start).Seconds()
}

func (t *localTask) Monitor() *hpm.Monitor { return t.mon }

func (t *localTask) Send(dst, tag int, b *Buffer) {
	q := t.vm.task(dst)
	if q == nil {
		panic(fmt.Sprintf("pvm: send to unknown task %d", dst))
	}
	telemetry.RecordSend(t.tid, dst, uint64(b.Bytes()))
	q.mu.Lock()
	q.mailbox = append(q.mailbox, localMsg{src: t.tid, tag: tag, buf: b})
	q.cond.Broadcast()
	q.mu.Unlock()
	t.mark()
}

func (t *localTask) Mcast(dsts []int, tag int, b *Buffer) {
	for _, d := range dsts {
		t.Send(d, tag, b)
	}
}

func matches(m localMsg, src, tag int) bool {
	return (src < 0 || m.src == src) && (tag < 0 || m.tag == tag)
}

func (t *localTask) Recv(src, tag int) (*Buffer, int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for i, m := range t.mailbox {
			if matches(m, src, tag) {
				t.mailbox = append(t.mailbox[:i], t.mailbox[i+1:]...)
				t.markLocked()
				return m.buf.reader(), m.src, m.tag
			}
		}
		t.cond.Wait()
	}
}

// RecvTimeout implements DeadlineRecver.  Local tasks share one process;
// a message, once sent, always arrives, so the deadline is moot.
func (t *localTask) RecvTimeout(src, tag int, _ time.Duration) (*Buffer, int, int, error) {
	b, s, g := t.Recv(src, tag)
	return b, s, g, nil
}

func (t *localTask) Probe(src, tag int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.mailbox {
		if matches(m, src, tag) {
			return true
		}
	}
	return false
}

type localBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
}

func (t *localTask) Barrier(name string, parties int) {
	telemetry.PvmBarriers.Add(1)
	l := t.vm
	l.mu.Lock()
	b := l.barriers[name]
	if b == nil {
		b = &localBarrier{}
		b.cond = sync.NewCond(&b.mu)
		l.barriers[name] = b
	}
	l.mu.Unlock()

	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
	t.mark()
}

func (t *localTask) Spawn(name string, n int, fn func(Task)) []int {
	tids := make([]int, n)
	for i := 0; i < n; i++ {
		tids[i] = t.vm.spawn(fmt.Sprintf("%s-%d", name, i), t.tid, i, fn)
	}
	return tids
}

// Charge attributes the wall time since the last boundary event (previous
// charge, send, recv or barrier) to the named counter along with the op
// counts — the best a real machine without virtual clocks can do, and the
// same approximation the paper's instrumented middleware makes.
func (t *localTask) Charge(counter string, ops hpm.Ops) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	dt := now.Sub(t.lastMark).Seconds()
	t.lastMark = now
	t.mon.Charge(counter, ops, dt)
}

func (t *localTask) SetWorkingSet(bytes int) {} // real memory hierarchy applies itself

func (t *localTask) mark() {
	t.mu.Lock()
	t.markLocked()
	t.mu.Unlock()
}

func (t *localTask) markLocked() { t.lastMark = time.Now() }
