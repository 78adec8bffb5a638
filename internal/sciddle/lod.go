package sciddle

// Level-of-detail (LoD) support: when enabled on a connection,
// CallPhasePacked first tries to replay the whole phase as macro-events
// through pvm.MacroPhase — running the servers' handlers in-process on
// shared state and charging the timeline through the kernel's own send,
// receive and barrier rules — and falls back to ordinary message-passing
// execution whenever the phase is not provably macro-safe.  Method statistics,
// telemetry and flow records are bit-identical either way: both report
// through MethodStats.sent and Conn.replied.

import (
	"slices"

	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// DirectDispatcher returns an in-process dispatch function for svc,
// suitable as pvm.DirectEntry.Dispatch.  It consumes a request buffer
// with the standard Sciddle header (call id, method) exactly as the
// Serve loop would after delivery, runs the handler on the server's
// task, and returns the (possibly void) reply.  The code that spawns a
// server with Serve(t, svc, ...) should register the dispatcher built
// from the *same* svc, so handler state is shared whichever path runs.
func DirectDispatcher(svc *Service) func(st pvm.Task, req *pvm.Buffer) *pvm.Buffer {
	var voidReply *pvm.Buffer
	// Steady-state phases repeat the same method thousands of times, so a
	// one-entry handler cache removes the map lookup from the hot path.
	var lastMethod string
	var lastHandler Handler
	return func(st pvm.Task, req *pvm.Buffer) *pvm.Buffer {
		_, method := unpackHeader(req)
		if method == methodStop {
			panic("sciddle: stop requests are never macro-dispatched")
		}
		h := lastHandler
		if method != lastMethod || h == nil {
			h = svc.handler(method)
			lastMethod, lastHandler = method, h
		}
		reply := h(st, req)
		if reply == nil {
			if voidReply == nil {
				voidReply = pvm.NewBuffer()
			}
			reply = voidReply.Reset()
		}
		return reply
	}
}

// SetLoD toggles level-of-detail macro replay for this connection's
// packed call phases.  It is a pure performance hint: every phase is
// verified eligible (simulated fabric, inert fault plane, quiescent
// kernel, all servers parked with registered dispatchers) before being
// replayed, and runs fine-grained otherwise, with identical results.
//
// In accounting mode the choice latches at the first phase: macro-skipped
// phases do not advance the servers' barrier parity, so a run must be
// all-macro or all-fine.  If the first phase cannot replay, LoD turns
// itself off for the connection; if it can, a later ineligible phase —
// impossible in the steady single-client topology — panics rather than
// desynchronize the barriers.
func (c *Conn) SetLoD(on bool) { c.lod = on }

// SuspendLoD forces fine-grained execution until ResumeLoD: windows that
// need event-level detail — an administrative kill schedule, a heal
// epoch boundary — run every phase through real message passing.  Each
// packed phase executed while suspended counts as a LoD fallback.
// No-op when LoD is off.
func (c *Conn) SuspendLoD() {
	if c.lod {
		c.lod, c.lodSusp = false, true
	}
}

// ResumeLoD re-enables macro replay after SuspendLoD.
func (c *Conn) ResumeLoD() {
	if c.lodSusp {
		c.lod, c.lodSusp = true, false
	}
}

// macroPhasePacked attempts to replay one packed call phase as
// macro-events.  On false, nothing observable has happened and the
// caller must run the phase fine-grained.
func (c *Conn) macroPhasePacked(method string, pack func(i int, args *pvm.Buffer)) ([]*pvm.Buffer, bool) {
	n := len(c.servers)
	if n == 0 {
		return nil, false
	}
	c.ensurePhaseScratch()
	for len(c.macroExecs) < n {
		i := len(c.macroExecs)
		c.macroExecs = append(c.macroExecs, func(st pvm.Task) int {
			rep := c.macroEntries[i].Dispatch(st, c.reqBufs[i].Rewind())
			c.replies[i] = rep.Rewind()
			return rep.Bytes()
		})
	}
	// The dispatch entries are memoized per fleet: in the steady state the
	// server set is stable across thousands of phases, so the per-server
	// registry lookups run once per fleet epoch (Connect, DropServer,
	// ReplaceServer all change the slice contents and miss the memo).
	if !slices.Equal(c.macroFleet, c.servers) {
		c.macroEntries = c.macroEntries[:0]
		for _, tid := range c.servers {
			entry, ok := pvm.DirectOf(c.t, tid)
			if !ok {
				c.macroFleet = c.macroFleet[:0]
				return nil, false
			}
			c.macroEntries = append(c.macroEntries, entry)
		}
		c.macroFleet = append(c.macroFleet[:0], c.servers...)
	}
	c.macroCalls = c.macroCalls[:0]
	seq0 := c.seq
	for i := range c.servers {
		req := c.reqBufs[i].Reset()
		c.packRequest(req, method, i, pack)
		c.macroCalls = append(c.macroCalls, pvm.MacroCall{
			Server:   c.servers[i],
			ReqBytes: req.Bytes(),
			Exec:     c.macroExecs[i],
		})
	}
	if !pvm.MacroPhase(c.t, c.macroCalls, c.accounting, n+1, &c.macroTimes) {
		c.seq = seq0
		return nil, false
	}
	// Book the replayed timeline exactly as CallPhasePacked books a
	// fine-grained phase: every send in call order, the two phase barriers
	// (already charged by the engine), every reply in collection order.
	st := c.stat(method)
	mt := &c.macroTimes
	for i := range c.servers {
		st.sent(mt.SendEnd[i]-mt.Issue[i], c.macroCalls[i].ReqBytes)
	}
	if c.accounting {
		c.phase++
	}
	for i, tid := range c.servers {
		c.replied(st, tid, mt.RepBytes[i], mt.Collect[i]-mt.RecvStart[i], mt.Issue[i], mt.Collect[i])
	}
	c.lodMacro++
	telemetry.LoDMacroPhases.Add(1)
	return c.replies, true
}

// LoDPhases returns this connection's macro-replayed and fallback phase
// counts — the per-run view of the global LoDMacroPhases/
// LoDFallbackPhases telemetry counters, safe to read in parallel sweeps
// where the process-wide counters aggregate many runs.
func (c *Conn) LoDPhases() (macro, fallback int) { return c.lodMacro, c.lodFallback }

// tryMacroPhase wraps macroPhasePacked with the accounting latch
// described at SetLoD.
func (c *Conn) tryMacroPhase(method string, pack func(i int, args *pvm.Buffer)) ([]*pvm.Buffer, bool) {
	if !c.lod {
		if c.lodSusp {
			c.lodFallback++
			telemetry.LoDFallbackPhases.Add(1)
		}
		return nil, false
	}
	replies, ok := c.macroPhasePacked(method, pack)
	if ok {
		if c.accounting {
			c.macroAcct = true
		}
		return replies, true
	}
	c.lodFallback++
	telemetry.LoDFallbackPhases.Add(1)
	if c.accounting {
		if c.macroAcct {
			panic("sciddle: lod: accounting phase lost macro eligibility mid-run; a fine-grained phase would desynchronize the barrier parity")
		}
		// First phase already needs the fine path: stay fine-grained for
		// the whole connection so barrier parities agree.
		c.lod = false
	}
	return nil, false
}

// ensurePhaseScratch sizes the per-server scratch shared by the
// fine-grained and macro executions of a phase (and by Close).
func (c *Conn) ensurePhaseScratch() {
	for len(c.reqBufs) < len(c.servers) {
		c.reqBufs = append(c.reqBufs, pvm.NewBuffer())
	}
	if cap(c.calls) < len(c.servers) {
		c.calls = make([]call, len(c.servers))
		c.replies = make([]*pvm.Buffer, len(c.servers))
	}
	c.calls = c.calls[:len(c.servers)]
	c.replies = c.replies[:len(c.servers)]
}
