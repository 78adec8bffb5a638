package pvm

import (
	"fmt"
	"sync"
	"time"

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
	t := &localTask{vm: l}
	t.init(len(l.tasks), name, parent, instance, l.start)
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

// localTask is a host task whose peers live in the same session: a send is
// an append to the destination's mailbox.
type localTask struct {
	hostTask
	vm *LocalVM
}

func (t *localTask) Send(dst, tag int, b *Buffer) {
	q := t.vm.task(dst)
	if q == nil {
		panic(fmt.Sprintf("pvm: send to unknown task %d", dst))
	}
	telemetry.RecordSend(t.tid, dst, uint64(b.Bytes()))
	q.enqueue(t.tid, tag, b)
	t.mark()
}

func (t *localTask) Mcast(dsts []int, tag int, b *Buffer) {
	for _, d := range dsts {
		t.Send(d, tag, b)
	}
}

func (t *localTask) Recv(src, tag int) (*Buffer, int, int) {
	b, msrc, mtag, _ := t.recv(src, tag, nil)
	return b, msrc, mtag
}

// RecvTimeout never fails: local tasks share one process and a message,
// once sent, always arrives, so the deadline is moot.
func (t *localTask) RecvTimeout(src, tag int, _ time.Duration) (*Buffer, int, int, error) {
	return t.recv(src, tag, nil)
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
