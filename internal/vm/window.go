package vm

import (
	"errors"
	"fmt"
	"math"
)

// The measurement window, summed as the kernel books segments (DESIGN.md
// §19).  A run's breakdown is the per-process, per-kind time inside
// [t0, t1], the simulation steps; the engine reports both ends as it
// reaches them (pvm.OpenWindow/CloseWindow).  Segments booked before t0 are
// held and folded in, clipped to t0, when the window opens; later ones are
// clipped and added as they are booked.  Each cell thus receives the
// additions of a reduction of the whole timeline over [t0, t1], in booking
// order, provided no segment booked before the close ends after t1 — which
// CloseWindow checks.

// ErrLateSegment is the panic of CloseWindow(t1) when a segment booked
// before the close ends after t1: the window summed it unclipped, so it no
// longer equals the reduction over [t0, t1].
var ErrLateSegment = errors.New("vm: a segment booked before the window closed ends after it")

const (
	windowNone = iota
	windowHeld
	windowOpen
	windowClosed
)

// window is the kernel's measurement window; the per-process sums live in
// Proc.win.
type window struct {
	state  uint8
	t0, t1 Time // t1 is +Inf while the window is open
	held   []heldSegment
}

type heldSegment struct {
	start, end Time
	proc       int32
	kind       uint8
}

// HoldWindow makes the kernel sum a measurement window: the segments
// booked from now on are held until OpenWindow folds them in.  Call it
// before Run.  A kernel never told so holds and sums nothing, and its
// OpenWindow and CloseWindow do nothing.
func (k *Kernel) HoldWindow() {
	if k.win.state == windowNone {
		k.win.state = windowHeld
	}
}

// OpenWindow opens the measurement window at t0: the held segments are
// folded into their processes' window totals, clipped to t0, and every
// later segment is added as it is booked.  It panics on a window already
// open or closed.
func (k *Kernel) OpenWindow(t0 Time) {
	w := &k.win
	if w.state == windowNone {
		return
	}
	if w.state != windowHeld {
		panic("vm: OpenWindow on a window already opened")
	}
	w.state, w.t0, w.t1 = windowOpen, t0, math.Inf(1)
	for _, s := range w.held {
		k.procs[s.proc].sum(SegKind(s.kind), s.start, s.end)
	}
	w.held = nil
}

// CloseWindow closes the open measurement window at t1.  It panics with
// ErrLateSegment when a segment booked so far ends after t1.
func (k *Kernel) CloseWindow(t1 Time) {
	w := &k.win
	if w.state == windowNone {
		return
	}
	if w.state != windowOpen {
		panic("vm: CloseWindow without an open window")
	}
	for _, p := range k.procs {
		if p.winEnd > t1 {
			panic(fmt.Errorf("%w: process %d has one ending at %g, the window [%g, %g]",
				ErrLateSegment, p.id, p.winEnd, w.t0, t1))
		}
	}
	w.state, w.t1 = windowClosed, t1
}

// WindowTotals returns the per-kind time inside the closed measurement
// window of each process in ids, in order; zero for an id the kernel does
// not know.  It panics unless the window has closed.
func (k *Kernel) WindowTotals(ids ...int) [][NumSegKinds]float64 {
	if k.win.state != windowClosed {
		panic("vm: WindowTotals before CloseWindow")
	}
	out := make([][NumSegKinds]float64, len(ids))
	for i, id := range ids {
		if p := k.proc(id); p != nil {
			out[i] = p.win
		}
	}
	return out
}

// sum adds the part of [start, end] inside the window to p's totals, and
// while the window is open notes the latest end for CloseWindow's check.
func (p *Proc) sum(kind SegKind, start, end Time) {
	w := &p.k.win
	if w.state == windowOpen && end > p.winEnd {
		p.winEnd = end
	}
	if start < w.t0 {
		start = w.t0
	}
	if end > w.t1 {
		end = w.t1
	}
	if end > start {
		p.win[kind] += end - start
	}
}
