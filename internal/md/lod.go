package md

// Level-of-detail (LoD) plumbing for the parallel engine.  Macro replay
// is how an eligible RPC phase runs: the Sciddle connection replays it as
// macro-events (internal/pvm/macro.go) — the servers' handlers run
// in-process on the client's coroutine and the fan-out is charged through
// the kernel's own send, receive and barrier rules — skipping every
// coroutine switch and message allocation of fine-grained execution while
// producing bit-identical clocks, energies and Stats breakdowns.  The
// phase profile — resolved dispatch entries, request buffers, exec
// closures, timeline arrays — is memoized per (fleet, phase shape) inside
// the connection, so the steady state runs without registry lookups or
// heap allocation.
//
// Fine-grained message passing is the fallback and the test reference:
// any run or window needing event-level detail (non-simulated fabric,
// active fault plane, administrative kill step, non-quiescent kernel,
// unregistered dispatcher) takes it by itself, and LoDOff pins it for
// the bit-identity sweeps.

import (
	"fmt"

	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
)

// LoDMode is the level of detail of the parallel engine's RPC phases
// (Options.LoD).
type LoDMode int

const (
	// LoDAuto, the zero value, macro-replays every phase that can
	// provably use it: the run must be on the simulated fabric with an
	// inert fault plane (pvm.MacroCapable), and individual phases still
	// fall back to fine-grained execution whenever eligibility is lost
	// (kill windows, heal epochs).
	LoDAuto LoDMode = iota
	// LoDOff runs every phase fine-grained: the reference the
	// bit-identity tests compare macro replay against.
	LoDOff
)

// ParseLoDMode parses the textual LoD modes accepted by the opal -lod
// flag and scenario files; the empty string is LoDAuto.
func ParseLoDMode(s string) (LoDMode, error) {
	switch s {
	case "", "auto":
		return LoDAuto, nil
	case "off":
		return LoDOff, nil
	}
	return LoDOff, fmt.Errorf("md: unknown LoD mode %q (want auto or off)", s)
}

func (m LoDMode) String() string {
	switch m {
	case LoDAuto:
		return "auto"
	case LoDOff:
		return "off"
	}
	return fmt.Sprintf("LoDMode(%d)", int(m))
}

// registerDirect records svc's in-process dispatcher for server tid.
func registerDirect(t pvm.Task, tid int, svc *sciddle.Service) {
	pvm.RegisterDirect(t, tid, pvm.DirectEntry{
		Obj:      svc,
		Dispatch: sciddle.DirectDispatcher(svc),
	})
}
