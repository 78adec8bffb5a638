package pvm

// Level-of-detail macro replay: the client→servers fan-out of one RPC
// phase, normally dozens of fine-grained kernel events (sends, receive
// wakeups, barrier entries, reply sends), is replayed analytically in a
// single pass on the client's goroutine.  The engine is a miniature
// deterministic event walk over the *same* scheduling rules the kernel
// applies — keys are (virtual time, proc id), channel transfers contend
// on the shared-channel horizon, barriers release at max(arrival)+sync —
// so every clock, every Stats counter and every traced segment duration
// comes out bit-identical to fine-grained execution, with zero goroutine
// handoffs and zero Message allocations.
//
// Safety: a phase is only replayed when the kernel is provably in the
// quiescent steady state the closed form assumes — no fault model draws
// from the RNG stream, no other process is runnable, and every target
// server is parked in its receive loop.  Any violation falls back to
// fine-grained execution, which is always correct.

import (
	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// DirectEntry describes how the macro layer can run one server's
// handlers in-process.  Dispatch implements the generic buffer-level
// protocol (exactly what the server's Serve loop would do with a
// delivered request); Obj optionally exposes the underlying typed
// handler object so higher layers can skip buffer marshalling entirely.
type DirectEntry struct {
	Obj      any
	Dispatch func(st Task, req *Buffer) *Buffer
}

// RegisterDirect records the in-process dispatch entry for the server
// task tid.  Only the simulated fabric supports direct dispatch; other
// fabrics return false and the caller stays fine-grained.  The entry
// must be registered by the code that spawns the server, with the same
// handler objects the spawned goroutine serves from, so state is shared
// whichever path executes a call.
func RegisterDirect(t Task, tid int, e DirectEntry) bool {
	st, ok := t.(*simTask)
	if !ok {
		return false
	}
	if st.vm.directs == nil {
		st.vm.directs = make(map[int]DirectEntry)
	}
	st.vm.directs[tid] = e
	return true
}

// DirectOf returns the dispatch entry registered for tid, if any.
func DirectOf(t Task, tid int) (DirectEntry, bool) {
	st, ok := t.(*simTask)
	if !ok {
		return DirectEntry{}, false
	}
	e, ok := st.vm.directs[tid]
	return e, ok
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
	// Exec runs the server's handler in-process, charging virtual time
	// to st exactly as the fine-grained handler would, and returns the
	// reply message volume.
	Exec func(st Task) int
}

// MacroTimes is the per-call client timeline of a macro-replayed phase,
// in call order.  All values are client-side virtual clocks matching
// what the fine-grained protocol would have observed.
type MacroTimes struct {
	Issue     []float64 // clock when the call was issued (before its send)
	SendEnd   []float64 // clock when the request send completed
	RecvStart []float64 // clock when the client began waiting for the reply
	Collect   []float64 // clock when the reply was consumed
	RepBytes  []int     // reply volume produced by each handler
}

func (mt *MacroTimes) reset(n int) {
	mt.Issue = append(mt.Issue[:0], make([]float64, n)...)
	mt.SendEnd = append(mt.SendEnd[:0], make([]float64, n)...)
	mt.RecvStart = append(mt.RecvStart[:0], make([]float64, n)...)
	mt.Collect = append(mt.Collect[:0], make([]float64, n)...)
	mt.RepBytes = append(mt.RepBytes[:0], make([]int, n)...)
}

// macro event kinds, one pending event per actor at any time.
const (
	mevSend      = iota // client sends request idx
	mevWake             // server idx wakes on its request's arrival
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
	barArr   [2][]float64 // member arrivals: [0]=client, [1+i]=server i
	barCount [2]int
	waiting  int // reply index the client needs next, -1 when none pending
}

func (e *macroEngine) reset(p int) {
	e.events = e.events[:0]
	e.svt = append(e.svt[:0], make([]*simTask, p)...)
	e.arr = append(e.arr[:0], make([]float64, p)...)
	e.repArr = append(e.repArr[:0], make([]float64, p)...)
	e.repReady = append(e.repReady[:0], make([]bool, p)...)
	for b := 0; b < 2; b++ {
		e.barArr[b] = append(e.barArr[b][:0], make([]float64, p+1)...)
		e.barCount[b] = 0
	}
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

// chanSend replicates vm.Proc.Send's cost and shared-channel contention
// for a fault-free transfer, returning the message's arrival time.
func chanSend(k *vm.Kernel, comm vm.CommModel, p *vm.Proc, dst, bytes int) float64 {
	busy, lat := 0.0, 0.0
	if comm != nil {
		busy, lat = comm.SendCost(p.ID(), dst, bytes)
	}
	if busy > 0 {
		if cf := k.ChanFree(); cf > p.Now() {
			p.Elapse(cf-p.Now(), vm.SegIdle)
		}
		k.SetChanFree(p.Now() + busy)
	}
	p.Elapse(busy, vm.SegComm)
	return p.Now() + lat
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

	comm := k.Comm()
	pc := ct.proc
	eng.push(macroEvent{key: pc.Now(), id: pc.ID(), kind: mevSend})

	joinBarrier := func(which, member int, arrival float64) {
		eng.barArr[which][member] = arrival
		eng.barCount[which]++
		if eng.barCount[which] < parties {
			return
		}
		// Last arriver: release everybody at max(arrivals)+sync, idle
		// until the release and the synchronization itself on top —
		// exactly vm.Proc.Barrier's release rule.
		release := eng.barArr[which][0]
		for _, a := range eng.barArr[which][1:] {
			if a > release {
				release = a
			}
		}
		sync := 0.0
		if comm != nil {
			sync = comm.SyncCost(parties)
		}
		telemetry.PvmBarriers.Add(uint64(parties))
		pc.ElapseSpan(
			vm.Span{D: release - eng.barArr[which][0], Kind: vm.SegIdle},
			vm.Span{D: sync, Kind: vm.SegSync},
		)
		for i := 0; i < p; i++ {
			sv := eng.svt[i].proc
			sv.ElapseSpan(
				vm.Span{D: release - eng.barArr[which][1+i], Kind: vm.SegIdle},
				vm.Span{D: sync, Kind: vm.SegSync},
			)
			if which == 0 {
				eng.push(macroEvent{key: sv.Now(), id: sv.ID(), kind: mevHandler, idx: i})
			} else {
				eng.push(macroEvent{key: sv.Now(), id: sv.ID(), kind: mevReplySend, idx: i})
			}
		}
		if which == 0 {
			// The client's next act after the "call" barrier is joining
			// the "done" barrier; it cannot release yet (parties >= 2).
			eng.barArr[1][0] = pc.Now()
			eng.barCount[1]++
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
			telemetry.RecordSend(pc.ID(), sv.ID(), uint64(calls[i].ReqBytes))
			eng.arr[i] = chanSend(k, comm, pc, sv.ID(), calls[i].ReqBytes)
			pc.AccountSend(1, calls[i].ReqBytes)
			out.SendEnd[i] = pc.Now()
			wake := sv.Now()
			if eng.arr[i] > wake {
				wake = eng.arr[i]
			}
			eng.push(macroEvent{key: wake, id: sv.ID(), kind: mevWake, idx: i})
			if i+1 < p {
				eng.push(macroEvent{key: pc.Now(), id: pc.ID(), kind: mevSend, idx: i + 1})
			} else if accounting {
				joinBarrier(0, 0, pc.Now())
			} else {
				eng.waiting = 0
				scheduleRecv()
			}
		case mevWake:
			i := ev.idx
			sv := eng.svt[i].proc
			if eng.arr[i] > sv.Now() {
				sv.Elapse(eng.arr[i]-sv.Now(), vm.SegIdle)
			}
			sv.AccountRecv(1, calls[i].ReqBytes)
			if accounting {
				joinBarrier(0, 1+i, sv.Now())
			} else {
				out.RepBytes[i] = calls[i].Exec(eng.svt[i])
				eng.push(macroEvent{key: sv.Now(), id: sv.ID(), kind: mevReplySend, idx: i})
			}
		case mevHandler:
			i := ev.idx
			sv := eng.svt[i].proc
			out.RepBytes[i] = calls[i].Exec(eng.svt[i])
			joinBarrier(1, 1+i, sv.Now())
		case mevReplySend:
			i := ev.idx
			sv := eng.svt[i].proc
			telemetry.RecordSend(sv.ID(), pc.ID(), uint64(out.RepBytes[i]))
			eng.repArr[i] = chanSend(k, comm, sv, pc.ID(), out.RepBytes[i])
			sv.AccountSend(1, out.RepBytes[i])
			eng.repReady[i] = true
			scheduleRecv()
		case mevRecv:
			i := ev.idx
			out.RecvStart[i] = pc.Now()
			if eng.repArr[i] > pc.Now() {
				pc.Elapse(eng.repArr[i]-pc.Now(), vm.SegIdle)
			}
			pc.AccountRecv(1, out.RepBytes[i])
			out.Collect[i] = pc.Now()
			if i+1 < p {
				eng.waiting = i + 1
				scheduleRecv()
			}
		}
	}
	return true
}
