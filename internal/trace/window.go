package trace

import (
	"errors"
	"fmt"
	"math"
)

// The measurement window, summed at record time.  A run's breakdown is the
// reduction of its trace over [t0, t1]: the simulation steps, without the
// amortized initialization before t0 and the shutdown after t1.  The engine
// reports both ends as it reaches them (pvm.OpenWindow/CloseWindow), so the
// recorder can keep that reduction as it goes instead of storing every
// segment to reduce them once at the end:
//
//   - OpenWindow(t0) folds the segments recorded so far (the init traffic)
//     into a per-(process row, kind) table, clipped to t0, in recording
//     order;
//   - from then on every segment is clipped and added as it arrives;
//   - CloseWindow(t1) fixes the end; segments recorded after it (the
//     shutdown) are clipped to t1 and still added.
//
// Each cell thus receives exactly the additions of the chunk reduction
// over [t0, t1], in the same order — provided no segment added while t1
// was still unknown needed the clip at t1.  That is the one invariant: no
// segment recorded before the window closes ends after t1.  It holds for the engines because every server segment
// precedes the client's receipt of that server's final reply or barrier
// release, and CloseWindow checks it with one comparison per process.

// ErrLateSegment is the panic of CloseWindow(t1) when a segment recorded
// before the close ends after t1: the window table summed it unclipped, so
// it no longer equals the reduction over [t0, t1].
var ErrLateSegment = errors.New("trace: a segment recorded before the window closed ends after it")

const (
	windowNone = iota
	windowOpen
	windowClosed
)

// window is the recorder's measurement window and its table.
type window struct {
	state  uint8
	t0, t1 float64 // t1 is +Inf while the window is open
	// tot and maxEnd are indexed like Recorder.procs: the window's totals
	// per kind, and the latest end of a non-empty segment added while the
	// window was open (the left side of the check at close).
	tot    []kindTotals
	maxEnd []float64
}

// addRow extends the table by the row of a process seen for the first time.
func (w *window) addRow() {
	w.tot = append(w.tot, kindTotals{})
	w.maxEnd = append(w.maxEnd, math.Inf(-1))
}

// add clips one segment to the window and adds it to its row, with the
// chunk reduction's arithmetic.
func (w *window) add(row int, kind uint8, start, end float64) {
	if end > start && end > w.maxEnd[row] {
		w.maxEnd[row] = end
	}
	addClipped(&w.tot[row], kind, start, end, w.t0, w.t1)
}

// covers reports whether the table answers the window [t0, t1].
func (w *window) covers(t0, t1 float64) bool {
	return w.state == windowClosed && t0 == w.t0 && t1 == w.t1
}

// reset forgets the window and its rows, keeping their capacity.
func (w *window) reset() {
	*w = window{tot: w.tot[:0], maxEnd: w.maxEnd[:0]}
}

// OpenWindow opens the measurement window at t0: the segments recorded so
// far are folded into the window table, and a recorder from
// NewWindowRecorder stops keeping intervals.  Opening a window again
// replaces the table by one refolded from the retained trace, which a
// window recorder no longer has (ErrIntervalsDropped).
func (r *Recorder) OpenWindow(t0 float64) {
	r.mustKeep()
	w := &r.win
	w.state, w.t0, w.t1 = windowOpen, t0, math.Inf(1)
	for row := range w.tot {
		w.tot[row], w.maxEnd[row] = kindTotals{}, math.Inf(-1)
	}
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			w.add(r.tracks[s.track].row, s.kind, s.start, s.end)
		}
	}
	if !r.keep {
		r.segs.reset()
		r.flows.reset()
	}
}

// CloseWindow closes the open measurement window at t1.  It panics with
// ErrLateSegment when a segment recorded so far ends after t1.
func (r *Recorder) CloseWindow(t1 float64) {
	w := &r.win
	if w.state != windowOpen {
		panic("trace: CloseWindow without an open window")
	}
	for row, end := range w.maxEnd {
		if end > t1 {
			panic(fmt.Errorf("%w: process %d has one ending at %g, the window [%g, %g]",
				ErrLateSegment, r.procs[row], end, w.t0, t1))
		}
	}
	w.state, w.t1 = windowClosed, t1
}
