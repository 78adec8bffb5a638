package pvm

// Run-ahead of server handlers.  In the Sciddle accounting mode a phase's
// server computations sit between the "call" and "done" barriers, so the
// handlers of one phase are independent: each is a function of its
// server's state and its request, and reaches its task only through
// identity, Charge and SetWorkingSet.  A server that holds its request
// may therefore start the handler at once on the session's helper
// goroutine, against an aheadTask that records the Charge and
// SetWorkingSet calls instead of making them.  Where the handler would
// run in place the server claims it: it runs the handler itself if the
// helper has not started it, or waits for it, and replays the recorded
// calls on its real task.  Every clock, fault draw, Stats counter, traced segment
// and hpm counter is then what running the handler in place produces,
// and a simulated run uses a second core for the handlers' host work.
//
// One helper serves a session, and only while GOMAXPROCS leaves it a
// core.  It takes the most recently started handler, while servers claim
// theirs in the order they need them, so the two work the phase from
// opposite ends instead of queueing behind each other.  Whether a
// (server, method) pair runs ahead is decided once, by the host time of
// its first two calls (Gate).  A first call is held to be timed in place;
// the first of a phase to prove long releases the others still held to
// the helper.  A run whose handlers are all short never starts the
// helper, and one long measurement of a short handler costs one handoff,
// not a run of them.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opalperf/internal/hpm"
)

// aheadFloor is the host time below which a (server, method) pair's
// handler stays inline: its first calls are timed, and a shorter one
// cannot repay the handoff it costs (BenchmarkAheadHandoff).  Tests lower
// it to engage run-ahead on tiny handlers.
var aheadFloor = 50 * time.Microsecond

// ErrAheadTask is the panic value, wrapped with the offending method, of
// a handler that uses its task beyond identity, Charge and SetWorkingSet
// while it runs ahead.
var ErrAheadTask = errors.New("pvm: a handler running ahead may use only its task's identity, Charge and SetWorkingSet")

// Call is a server handler bound to one held request, as run-ahead runs
// it.
type Call interface {
	// Run runs the handler against st and returns the reply volume.
	Run(st Task) int
	// Gate is the run-ahead decision of the call's (server, method) pair.
	Gate() *Gate
}

// Gate is the run-ahead decision of one (server, method) pair, kept with
// the pair's handler entry and touched only by the server's side of the
// kernel.  The pair's first two calls are timed; one below aheadFloor
// makes the pair inline for the rest of the run, which then costs its
// calls one field read, and if both are longer every later call runs
// ahead.
type Gate struct{ state uint8 }

const (
	gateFirst  uint8 = iota // no call timed yet
	gateSecond              // the first call was long
	gateAhead
	gateInline
)

// Inline reports whether the pair's calls run in place.
func (g *Gate) Inline() bool { return g.state == gateInline }

// decide takes one more timed call of an unsettled gate into account.
func (g *Gate) decide(host time.Duration) {
	switch {
	case g.state >= gateAhead:
	case host < aheadFloor:
		g.state = gateInline
	default:
		g.state++
	}
}

// StartAhead starts c ahead on the helper of server task t's session —
// or, for the first call of its pair, holds it to be timed — and reports
// whether it did: t must be a simulated task whose session has a helper,
// and c's gate must not be inline.  A started call must be finished by
// FinishAhead on t's coroutine before t starts another.
func StartAhead(t Task, c Call) bool {
	st, ok := t.(*simTask)
	return ok && st.startAhead(c)
}

// FinishAhead claims the call StartAhead started on t, where the handler
// would run in place: it runs it there if the helper has not started it,
// or waits for the helper, then replays the recorded calls on t.  A
// handler that panicked ahead re-raises its value here.
func FinishAhead(t Task) { t.(*simTask).ahead.finish() }

// AheadRuns returns how many handlers the session's helper has run ahead
// of their servers; zero while GOMAXPROCS is 1.  Read it after Run.
func (s *SimVM) AheadRuns() int { return s.helper.runs }

func (t *simTask) startAhead(c Call) bool {
	if !t.vm.helper.spare || c.Gate().Inline() {
		return false
	}
	t.ahead.start(t, c)
	return true
}

// A lane's states.  posted → running → done is the helper's path (with
// waiting when the server arrives first); posted → idle is a claim by the
// server before the helper took the call, or before a held first call
// was released to it.
const (
	laneIdle int32 = iota
	lanePosted
	laneRunning
	laneWaiting
	laneDone
)

// lane is one server task's reusable handle on the helper, zero until
// the task's first started call.
type lane struct {
	t     *simTask
	state atomic.Int32
	call  Call
	gate  *Gate
	rec   aheadTask
	woken chan struct{} // the helper's signal to a waiting server
	// Written by the helper before it leaves laneRunning.
	ret      int
	host     time.Duration
	panicked bool
	pv       any
}

func (l *lane) start(t *simTask, c Call) {
	l.t, l.rec.t = t, t
	l.call, l.gate = c, c.Gate()
	l.rec.calls = l.rec.calls[:0]
	l.state.Store(lanePosted)
	h := &t.vm.helper
	if l.gate.state == gateFirst {
		h.held = append(h.held, l)
		return
	}
	h.post(l)
}

func (l *lane) finish() int {
	if l.state.CompareAndSwap(lanePosted, laneIdle) {
		// The helper never took it, or it is the pair's first call: run
		// it in place.
		if l.gate.state >= gateAhead {
			return l.call.Run(l.t)
		}
		t0 := time.Now()
		ret := l.call.Run(l.t)
		first := l.gate.state == gateFirst
		if l.gate.decide(time.Since(t0)); first && l.gate.state == gateSecond {
			l.t.vm.helper.release()
		}
		return ret
	}
	if l.state.CompareAndSwap(laneRunning, laneWaiting) {
		<-l.woken
	}
	l.state.Store(laneIdle)
	l.gate.decide(l.host)
	for _, c := range l.rec.calls {
		if c.charge {
			l.t.Charge(c.counter, c.ops)
		} else {
			l.t.SetWorkingSet(c.ws)
		}
	}
	if l.panicked {
		pv := l.pv
		l.panicked, l.pv = false, nil
		panic(pv)
	}
	return l.ret
}

// runAhead runs the call on the helper against the recording task.
func (l *lane) runAhead() {
	t0 := time.Now()
	panicked := true
	defer func() {
		l.host = time.Since(t0)
		if panicked {
			l.panicked, l.pv = true, recover()
		}
		if !l.state.CompareAndSwap(laneRunning, laneDone) {
			l.state.Store(laneDone)
			l.woken <- struct{}{}
		}
	}()
	l.ret = l.call.Run(&l.rec)
	panicked = false
}

// helper is a session's run-ahead goroutine.  It exists only while Run
// executes, is started by the first posted call and has exited, with no
// call of its left running, by the time Run returns.
type helper struct {
	spare   bool // set by Run: GOMAXPROCS leaves the helper a core
	up      bool
	held    []*lane // first calls held to be timed in place
	mu      sync.Mutex
	posted  []*lane // a stack; claimed or finished entries are skipped
	closing bool
	kick    chan struct{}
	done    sync.WaitGroup
	runs    int // written by the helper goroutine only
}

func (h *helper) post(l *lane) {
	if l.woken == nil {
		l.woken = make(chan struct{}, 1)
	}
	h.mu.Lock()
	h.posted = append(h.posted, l)
	h.mu.Unlock()
	if !h.up {
		h.up = true
		h.kick = make(chan struct{}, 1)
		h.done.Add(1)
		go h.loop()
		return
	}
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

func (h *helper) loop() {
	defer h.done.Done()
	for {
		h.mu.Lock()
		if h.closing {
			h.mu.Unlock()
			return
		}
		n := len(h.posted)
		if n == 0 {
			h.mu.Unlock()
			<-h.kick
			continue
		}
		l := h.posted[n-1]
		h.posted = h.posted[:n-1]
		h.mu.Unlock()
		if l.state.CompareAndSwap(lanePosted, laneRunning) {
			l.runAhead()
			h.runs++
		}
	}
}

// release posts the held first calls their servers have not claimed yet:
// one first call proved long, and the others of its phase are likely to
// be.
func (h *helper) release() {
	for _, l := range h.held {
		if l.state.Load() == lanePosted {
			h.post(l)
		}
	}
	clear(h.held)
	h.held = h.held[:0]
}

// begin readies the helper for a run.
func (h *helper) begin() { h.spare = runtime.GOMAXPROCS(0) > 1 }

// stop abandons the calls nobody took, waits for the one in progress and
// for the helper to exit.
func (h *helper) stop() {
	clear(h.held)
	h.held = h.held[:0]
	if !h.up {
		return
	}
	h.mu.Lock()
	h.closing = true
	clear(h.posted)
	h.posted = h.posted[:0]
	h.mu.Unlock()
	select {
	case h.kick <- struct{}{}:
	default:
	}
	h.done.Wait()
	h.up, h.closing = false, false
}

// aheadTask is the task a handler running ahead sees: its server's
// identity, and a record of its Charge and SetWorkingSet calls.
// Anything that would touch the kernel panics with ErrAheadTask.
type aheadTask struct {
	t     *simTask
	calls []aheadCall
}

// aheadCall is one recorded call: a Charge, or a SetWorkingSet.
type aheadCall struct {
	charge  bool
	counter string
	ops     hpm.Ops
	ws      int
}

func (a *aheadTask) TID() int      { return a.t.TID() }
func (a *aheadTask) Parent() int   { return a.t.parent }
func (a *aheadTask) Name() string  { return a.t.Name() }
func (a *aheadTask) Instance() int { return a.t.instance }

func (a *aheadTask) Charge(counter string, ops hpm.Ops) {
	a.calls = append(a.calls, aheadCall{charge: true, counter: counter, ops: ops})
}

func (a *aheadTask) SetWorkingSet(bytes int) {
	a.calls = append(a.calls, aheadCall{ws: bytes})
}

func (a *aheadTask) Send(int, int, *Buffer)              { a.refuse("Send") }
func (a *aheadTask) Mcast([]int, int, *Buffer)           { a.refuse("Mcast") }
func (a *aheadTask) Recv(int, int) (*Buffer, int, int)   { a.refuse("Recv"); return nil, 0, 0 }
func (a *aheadTask) Probe(int, int) bool                 { a.refuse("Probe"); return false }
func (a *aheadTask) Barrier(string, int)                 { a.refuse("Barrier") }
func (a *aheadTask) Spawn(string, int, func(Task)) []int { a.refuse("Spawn"); return nil }
func (a *aheadTask) Now() float64                        { a.refuse("Now"); return 0 }
func (a *aheadTask) Monitor() *hpm.Monitor               { a.refuse("Monitor"); return nil }
func (a *aheadTask) RecvTimeout(int, int, time.Duration) (*Buffer, int, int, error) {
	a.refuse("RecvTimeout")
	return nil, 0, 0, nil
}

func (a *aheadTask) refuse(method string) {
	panic(fmt.Errorf("%w: %s called on task %d", ErrAheadTask, method, a.t.TID()))
}
