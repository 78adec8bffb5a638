package sciddle

// Level-of-detail (LoD) support: when enabled on a connection,
// CallPhasePacked first tries to replay the whole phase as macro-events
// through pvm.MacroPhase — each server takes its request through its own
// intake (server.hold) and the walk runs the server's held call
// in-process, charging the timeline through the kernel's own send,
// receive and barrier rules — and falls back to ordinary message-passing
// execution whenever the phase is not provably macro-safe.  Both levels
// drive the same server state, barrier parity included, so the choice is
// made phase by phase.  Method statistics, telemetry and flow records are
// bit-identical either way: both report through MethodStats.sent and
// Conn.replied.

import (
	"slices"

	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// DirectDispatcher returns an in-process dispatch function for svc.  It
// consumes a request buffer with the standard Sciddle header (call id,
// method) exactly as the Serve loop would after delivery, runs the
// handler on the server's task, and returns the (possibly void) reply.
// Macro replay does not use it — it runs each server's own held call —
// and it remains for callers that drive a handler table by buffers alone.
func DirectDispatcher(svc *Service) func(st pvm.Task, req *pvm.Buffer) *pvm.Buffer {
	var voidReply *pvm.Buffer
	return func(st pvm.Task, req *pvm.Buffer) *pvm.Buffer {
		_, method := unpackHeader(req)
		if method == methodStop {
			panic("sciddle: stop requests are not dispatched in-process")
		}
		return svc.entry(method).run(st, req, &voidReply)
	}
}

// SetLoD toggles level-of-detail macro replay for this connection's
// packed call phases.  It is a pure performance hint: every phase is
// verified eligible (simulated fabric, inert fault plane, quiescent
// kernel, every server a Sciddle reactor parked in its receive) before
// being replayed, and runs fine-grained otherwise, with identical results.
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

// LoDPhases returns this connection's macro-replayed and fallback phase
// counts — the per-run view of the global LoDMacroPhases/
// LoDFallbackPhases telemetry counters, safe to read in parallel sweeps
// where the process-wide counters aggregate many runs.
func (c *Conn) LoDPhases() (macro, fallback int) { return c.lodMacro, c.lodFallback }

// tryMacroPhase offers one packed call phase to macro replay when LoD is
// on, and counts a phase that wanted it but must run fine-grained.
func (c *Conn) tryMacroPhase(method string, pack func(i int, args *pvm.Buffer)) ([]*pvm.Buffer, bool) {
	if c.lod {
		if replies, ok := c.macroPhasePacked(method, pack); ok {
			c.lodMacro++
			telemetry.LoDMacroPhases.Add(1)
			return replies, true
		}
	} else if !c.lodSusp {
		return nil, false
	}
	c.lodFallback++
	telemetry.LoDFallbackPhases.Add(1)
	return nil, false
}

// macroPhasePacked attempts to replay one packed call phase as
// macro-events.  On false, nothing observable has happened and the
// caller must run the phase fine-grained.
func (c *Conn) macroPhasePacked(method string, pack func(i int, args *pvm.Buffer)) ([]*pvm.Buffer, bool) {
	n := len(c.servers)
	if n == 0 || !c.resolveFleet() {
		return nil, false
	}
	c.ensurePhaseScratch()
	c.macroCalls = c.macroCalls[:0]
	seq0 := c.seq
	for i, s := range c.macroServers {
		req := c.reqBufs[i].Reset()
		c.packRequest(req, method, i, pack)
		// A listening server's held request is overwritten by its next
		// one, so holding it here is unobservable if the phase falls back.
		if s.at != serveListen || s.hold(req.Rewind(), c.t.TID()) {
			c.seq = seq0
			return nil, false
		}
		c.macroCalls = append(c.macroCalls, pvm.MacroCall{
			Server:   c.servers[i],
			ReqBytes: req.Bytes(),
			Exec:     &s.held,
		})
	}
	if !pvm.MacroPhase(c.t, c.macroCalls, c.accounting, n+1, &c.macroTimes) {
		c.seq = seq0
		return nil, false
	}
	// Book the replayed timeline exactly as CallPhasePacked books a
	// fine-grained phase: every send in call order, the two phase barriers
	// (already charged by the engine, and passed by every server), every
	// reply in collection order.
	st := c.stat(method)
	mt := &c.macroTimes
	for i := range c.servers {
		st.sent(mt.SendEnd[i]-mt.Issue[i], c.macroCalls[i].ReqBytes)
	}
	if c.accounting {
		c.phase++
		for _, s := range c.macroServers {
			s.phase++
		}
	}
	for i, s := range c.macroServers {
		c.replies[i] = s.held.reply.Rewind()
		c.replied(st, c.servers[i], mt.RepBytes[i], mt.Collect[i]-mt.RecvStart[i], mt.Issue[i], mt.Collect[i])
	}
	return c.replies, true
}

// resolveFleet finds the connection's servers as Sciddle reactors, once
// per fleet: in the steady state the server set is stable across
// thousands of phases (Connect, DropServer and ReplaceServer change it).
func (c *Conn) resolveFleet() bool {
	if slices.Equal(c.macroFleet, c.servers) {
		return true
	}
	c.macroServers = c.macroServers[:0]
	for _, tid := range c.servers {
		r, _ := pvm.ReactorOf(c.t, tid)
		s, ok := r.(*server)
		if !ok {
			c.macroFleet = c.macroFleet[:0]
			return false
		}
		c.macroServers = append(c.macroServers, s)
	}
	c.macroFleet = append(c.macroFleet[:0], c.servers...)
	return true
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
