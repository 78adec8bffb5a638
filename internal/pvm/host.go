package pvm

import (
	"sync"
	"time"

	"opalperf/internal/hpm"
)

// hostTask is what a task of the two real-time fabrics (local and network)
// is made of, whichever way its messages travel: an identity, a hardware
// performance monitor, a mutex-protected mailbox that real goroutines
// deliver into, and wall-clock time.  localTask and tcpTask embed it and
// add only how a message reaches another task's mailbox.
type hostTask struct {
	tid      int
	name     string
	parent   int
	instance int
	mon      *hpm.Monitor
	start    time.Time // session start, the zero of Now

	mu       sync.Mutex
	cond     *sync.Cond
	mailbox  []hostMsg
	lastMark time.Time // boundary for Charge time attribution
}

type hostMsg struct {
	src, tag int
	buf      *Buffer
}

// init fills a task in place (the condition variable points at its mutex).
func (t *hostTask) init(tid int, name string, parent, instance int, start time.Time) {
	t.tid, t.name, t.parent, t.instance = tid, name, parent, instance
	t.mon = hpm.NewMonitor(hpm.CanonicalWeights())
	t.start = start
	t.cond = sync.NewCond(&t.mu)
	t.lastMark = time.Now()
}

func (t *hostTask) TID() int              { return t.tid }
func (t *hostTask) Parent() int           { return t.parent }
func (t *hostTask) Name() string          { return t.name }
func (t *hostTask) Instance() int         { return t.instance }
func (t *hostTask) Monitor() *hpm.Monitor { return t.mon }
func (t *hostTask) Now() float64          { return time.Since(t.start).Seconds() }
func (t *hostTask) SetWorkingSet(int)     {} // real memory hierarchy applies itself

// enqueue delivers a message into the task's mailbox and wakes its
// receiver.  Called from the sender's (or the session reader's) goroutine.
func (t *hostTask) enqueue(src, tag int, b *Buffer) {
	t.mu.Lock()
	t.mailbox = append(t.mailbox, hostMsg{src: src, tag: tag, buf: b})
	t.cond.Broadcast()
	t.mu.Unlock()
}

// wake makes a blocked receive re-evaluate its exit conditions.
func (t *hostTask) wake() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// find returns the mailbox index of the first message matching (src, tag),
// or -1.  The caller holds t.mu.
func (t *hostTask) find(src, tag int) int {
	for i, m := range t.mailbox {
		if (src < 0 || m.src == src) && (tag < 0 || m.tag == tag) {
			return i
		}
	}
	return -1
}

// recv blocks until a message matching (src, tag) is queued and removes
// it.  giveUp, when non-nil, is consulted (under t.mu) each time no match
// is found; a non-nil result ends the wait with that error.
func (t *hostTask) recv(src, tag int, giveUp func() error) (*Buffer, int, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if i := t.find(src, tag); i >= 0 {
			m := t.mailbox[i]
			t.mailbox = append(t.mailbox[:i], t.mailbox[i+1:]...)
			t.lastMark = time.Now()
			return m.buf.reader(), m.src, m.tag, nil
		}
		if giveUp != nil {
			if err := giveUp(); err != nil {
				return nil, 0, 0, err
			}
		}
		t.cond.Wait()
	}
}

func (t *hostTask) Probe(src, tag int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.find(src, tag) >= 0
}

// mark moves the Charge boundary to now.
func (t *hostTask) mark() {
	t.mu.Lock()
	t.lastMark = time.Now()
	t.mu.Unlock()
}

// Charge attributes the wall time since the last boundary event (previous
// charge or receive; on the local fabric also send and barrier) to the
// named counter along with the op counts — the best a real machine without
// virtual clocks can do, and the same approximation the paper's
// instrumented middleware makes.
func (t *hostTask) Charge(counter string, ops hpm.Ops) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	dt := now.Sub(t.lastMark).Seconds()
	t.lastMark = now
	t.mon.Charge(counter, ops, dt)
}
