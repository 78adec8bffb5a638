package pvm

// Level-of-detail macro replay: the client→servers fan-out of one RPC
// phase, normally dozens of fine-grained kernel events (sends, receive
// wakeups, barrier entries, reply sends), is replayed in a single pass on
// the client's coroutine.  The engine is a miniature deterministic event
// walk that decides only *order* — keys are (virtual time, proc id), as in
// the kernel's scheduler — and prices nothing itself: every transfer,
// delivery and barrier goes through the kernel's own timing rules
// (vm.Proc.Transmit, Accept and Arrive), the functions Send, Recv and
// Barrier call.  Clocks, Stats counters and traced segments are therefore
// those of fine-grained execution by construction, with zero coroutine
// switches and zero Message allocations.
//
// There is no handler registry: each call's Exec is the request its
// server holds, bound to that server's handler entry by the server's own
// program (ReactorOf finds it), so the handler, its run-ahead gate and
// its reply are the server's whichever level runs the phase.  The walk
// keeps its own event loop and leaves the server reactors parked.
//
// Safety: a phase is only replayed when the kernel is provably in the
// quiescent steady state the walk assumes — no fault model draws from the
// RNG stream, no other process is runnable, and every target server is
// parked in its receive loop.  Any violation falls back to fine-grained
// execution, which is always correct.
//
// In accounting mode a server's handler starts ahead (ahead.go) when its
// request wakes the server, and is finished at its handler event.

import (
	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// DirectEntry is RegisterDirect's argument: a server's handler object
// and its buffer-level dispatch function.
//
// Deprecated: macro replay runs each server's own reactor (ReactorOf),
// so there is nothing to register.
type DirectEntry struct {
	Obj      any
	Dispatch func(st Task, req *Buffer) *Buffer
}

// RegisterDirect does nothing and returns false.
//
// Deprecated: macro replay runs each server's own reactor (ReactorOf).
func RegisterDirect(Task, int, DirectEntry) bool { return false }

// ReactorOf returns the program Drive handed the kernel as simulated task
// tid's, if it has one: the macro replay layer above runs a parked
// server's own held call through it.
func ReactorOf(t Task, tid int) (Reactor, bool) {
	st, ok := t.(*simTask)
	if !ok {
		return nil, false
	}
	sv := st.vm.task(tid)
	if sv == nil || sv.reactor.r == nil {
		return nil, false
	}
	return sv.reactor.r, true
}

// MacroCapable reports whether t runs on a fabric that can macro-replay
// phases at all: the simulated fabric with a provably inert fault plane.
// It is the static half of the eligibility check; MacroPhase still
// verifies quiescence per phase.
func MacroCapable(t Task) bool {
	st, ok := t.(*simTask)
	return ok && st.vm.Kernel.FaultFree()
}

// MacroCall is one server call of a macro-replayed phase.
type MacroCall struct {
	Server   int // server TID
	ReqBytes int // request message volume
	// Exec is the request as the server holds it: its Run runs the
	// server's handler in-process, charging virtual time to st exactly
	// as the fine-grained server would, and returns the reply volume.
	Exec Call
}

// MacroTimes is the per-call client timeline of a macro-replayed phase,
// in call order.  All values are client-side virtual clocks matching
// what the fine-grained protocol would have observed.
type MacroTimes struct {
	Issue    []float64 // clock when the call was issued (before its send)
	Collect  []float64 // clock when the reply was consumed
	RepBytes []int     // reply volume produced by each handler
}

func (mt *MacroTimes) reset(n int) {
	mt.Issue = append(mt.Issue[:0], make([]float64, n)...)
	mt.Collect = append(mt.Collect[:0], make([]float64, n)...)
	mt.RepBytes = append(mt.RepBytes[:0], make([]int, n)...)
}

// macro event kinds, one pending event per actor at any time.
const (
	mevSend      = iota // client sends request idx
	mevWake             // server idx wakes on its request's arrival
	mevJoinDone         // client enters the "done" barrier (accounting mode)
	mevHandler          // server idx runs its handler (accounting mode)
	mevReplySend        // server idx sends its reply
	mevRecv             // client consumes reply idx
)

type macroEvent struct {
	key  float64
	id   int // proc id, ties broken exactly like the kernel scheduler
	kind int
	idx  int
}

// macroEngine holds the reusable scratch state of one SimVM's replays.
type macroEngine struct {
	events   []macroEvent
	svt      []*simTask
	arr      []float64 // request arrival times
	repArr   []float64 // reply arrival times
	repReady []bool
	ahead    []bool        // handlers started ahead at their request's wake
	bar      [2][]*vm.Proc // members waiting at the "call" and "done" barriers
	waiting  int           // reply index the client needs next, -1 when none pending
}

func (e *macroEngine) reset(p int) {
	e.events = e.events[:0]
	e.svt = append(e.svt[:0], make([]*simTask, p)...)
	e.arr = append(e.arr[:0], make([]float64, p)...)
	e.repArr = append(e.repArr[:0], make([]float64, p)...)
	e.repReady = append(e.repReady[:0], make([]bool, p)...)
	e.ahead = append(e.ahead[:0], make([]bool, p)...)
	e.bar[0], e.bar[1] = e.bar[0][:0], e.bar[1][:0]
	e.waiting = -1
}

func (e *macroEngine) push(ev macroEvent) { e.events = append(e.events, ev) }

// pop removes and returns the minimum event by (key, id).  Each actor
// has at most one pending event, so the set is tiny; ids are unique,
// making selection total and deterministic.
func (e *macroEngine) pop() macroEvent {
	min := 0
	for i := 1; i < len(e.events); i++ {
		a, b := &e.events[i], &e.events[min]
		if a.key < b.key || (a.key == b.key && a.id < b.id) {
			min = i
		}
	}
	ev := e.events[min]
	last := len(e.events) - 1
	e.events[min] = e.events[last]
	e.events = e.events[:last]
	return ev
}

// MacroPhase replays one client→servers RPC phase analytically.  calls
// are issued in order; accounting inserts the two phase barriers of the
// Sciddle accounting mode with the given party count.  On success the
// out timeline is filled and true is returned; when any eligibility
// check fails nothing has been charged and the caller must run the
// phase fine-grained.
//
// Must be called by the client task while it holds the execution token.
func MacroPhase(t Task, calls []MacroCall, accounting bool, parties int, out *MacroTimes) bool {
	ct, ok := t.(*simTask)
	if !ok || len(calls) == 0 {
		return false
	}
	s := ct.vm
	k := s.Kernel
	if !k.FaultFree() || !k.Quiescent() {
		return false
	}
	if accounting && parties != len(calls)+1 {
		return false
	}
	eng := &s.macro
	p := len(calls)
	eng.reset(p)
	for i, c := range calls {
		sv := s.task(c.Server)
		if sv == nil || sv == ct || !sv.proc.Waiting() {
			return false
		}
		eng.svt[i] = sv
	}
	out.reset(p)

	pc := ct.proc
	eng.push(macroEvent{key: pc.Now(), id: pc.ID(), kind: mevSend})

	// join enters m into phase barrier which (0 "call", 1 "done").  The
	// last arriver releases the party, and every member's next act is
	// queued at its release time.
	join := func(which int, m *vm.Proc) {
		var released bool
		eng.bar[which], released = m.Arrive(eng.bar[which], parties)
		if !released {
			return
		}
		telemetry.PvmBarriers.Add(uint64(parties))
		next := mevHandler
		if which == 1 {
			next = mevReplySend
		}
		for i := 0; i < p; i++ {
			sv := eng.svt[i].proc
			eng.push(macroEvent{key: sv.Now(), id: sv.ID(), kind: next, idx: i})
		}
		if which == 0 {
			eng.push(macroEvent{key: pc.Now(), id: pc.ID(), kind: mevJoinDone})
		} else {
			eng.waiting = 0
		}
	}

	scheduleRecv := func() {
		i := eng.waiting
		if i < 0 || !eng.repReady[i] {
			return
		}
		key := pc.Now()
		if eng.repArr[i] > key {
			key = eng.repArr[i]
		}
		eng.push(macroEvent{key: key, id: pc.ID(), kind: mevRecv, idx: i})
		eng.waiting = -1
	}

	for len(eng.events) > 0 {
		ev := eng.pop()
		switch ev.kind {
		case mevSend:
			i := ev.idx
			sv := eng.svt[i].proc
			out.Issue[i] = pc.Now()
			telemetry.RecordSend(s.scope.Matrix, pc.ID(), sv.ID(), uint64(calls[i].ReqBytes))
			eng.arr[i] = pc.Transmit(sv.ID(), calls[i].ReqBytes)
			wake := sv.Now()
			if eng.arr[i] > wake {
				wake = eng.arr[i]
			}
			eng.push(macroEvent{key: wake, id: sv.ID(), kind: mevWake, idx: i})
			if i+1 < p {
				eng.push(macroEvent{key: pc.Now(), id: pc.ID(), kind: mevSend, idx: i + 1})
			} else if accounting {
				join(0, pc)
			} else {
				eng.waiting = 0
				scheduleRecv()
			}
		case mevWake:
			i := ev.idx
			sv := eng.svt[i].proc
			sv.Accept(eng.arr[i], calls[i].ReqBytes)
			if accounting {
				eng.ahead[i] = eng.svt[i].startAhead(calls[i].Exec)
				join(0, sv)
			} else {
				out.RepBytes[i] = calls[i].Exec.Run(eng.svt[i])
				eng.push(macroEvent{key: sv.Now(), id: sv.ID(), kind: mevReplySend, idx: i})
			}
		case mevJoinDone:
			join(1, pc)
		case mevHandler:
			i := ev.idx
			if eng.ahead[i] {
				out.RepBytes[i] = eng.svt[i].ahead.finish()
			} else {
				out.RepBytes[i] = calls[i].Exec.Run(eng.svt[i])
			}
			join(1, eng.svt[i].proc)
		case mevReplySend:
			i := ev.idx
			sv := eng.svt[i].proc
			telemetry.RecordSend(s.scope.Matrix, sv.ID(), pc.ID(), uint64(out.RepBytes[i]))
			eng.repArr[i] = sv.Transmit(pc.ID(), out.RepBytes[i])
			eng.repReady[i] = true
			scheduleRecv()
		case mevRecv:
			i := ev.idx
			pc.Accept(eng.repArr[i], out.RepBytes[i])
			out.Collect[i] = pc.Now()
			if i+1 < p {
				eng.waiting = i + 1
				scheduleRecv()
			}
		}
	}
	return true
}
