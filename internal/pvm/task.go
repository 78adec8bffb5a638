package pvm

import (
	"errors"
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

// Reactor is a task's program written as a state machine — a fixed
// protocol loop such as a Sciddle server's — so that a fabric can drive it
// without a blocked call stack (Drive).  Next consumes the outcome of the
// last wait and returns the next one: b and src are the message a receive
// delivered, or nil and -1 at the start, after any other wait, and when a
// receive's deadline passed.
type Reactor interface {
	Next(b *Buffer, src int) Wait
}

// Wait is what a Reactor waits for next: a receive, a send (which waits
// for the task's turn on the fabric), a barrier, or the end of the
// program (the zero Wait).
type Wait struct {
	op        waitOp
	peer, tag int
	buf       *Buffer
	name      string
	parties   int
	timeout   time.Duration
}

type waitOp uint8

const (
	waitExit waitOp = iota
	waitRecv
	waitSend
	waitBarrier
)

// RecvWait receives the next message matching (src, tag), as Recv does.
// A positive timeout bounds the wait as RecvTimeout's deadline does.
func RecvWait(src, tag int, timeout time.Duration) Wait {
	return Wait{op: waitRecv, peer: src, tag: tag, timeout: timeout}
}

// SendWait sends b to dst with tag, as Send does.
func SendWait(dst, tag int, b *Buffer) Wait {
	return Wait{op: waitSend, peer: dst, tag: tag, buf: b}
}

// BarrierWait enters the named barrier of parties tasks, as Barrier does.
func BarrierWait(name string, parties int) Wait {
	return Wait{op: waitBarrier, name: name, parties: parties}
}

// Drive runs r as task t's program until r exits.  On the simulated
// fabric the kernel steps r as a reactor process (vm.Proc.React) and
// Drive returns at once: the task's function must return right after.
// On any other task — the network fabric, or a simulated task behind a
// wrapper that hides its type — Drive blocks, carrying out each wait with
// t's own calls, and returns early when a receive fails for any reason
// but its deadline.
func Drive(t Task, r Reactor) {
	if st, ok := t.(*simTask); ok {
		st.reactor = simReactor{t: st, r: r}
		st.proc.React(&st.reactor)
		return
	}
	var b *Buffer
	src := -1
	for {
		w := r.Next(b, src)
		b, src = nil, -1
		switch w.op {
		case waitRecv:
			if w.timeout <= 0 {
				b, src, _ = t.Recv(w.peer, w.tag)
				continue
			}
			rb, rsrc, _, err := t.RecvTimeout(w.peer, w.tag, w.timeout)
			if err == nil {
				b, src = rb, rsrc
			} else if !errors.Is(err, ErrRecvTimeout) {
				return
			}
		case waitSend:
			t.Send(w.peer, w.tag, w.buf)
		case waitBarrier:
			t.Barrier(w.name, w.parties)
		default:
			return
		}
	}
}
