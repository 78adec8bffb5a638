package vm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refTotals is the reduction the window replaces: one pass over one
// process's traced segments, clipped to [t0, t1], in tracing order.
func refTotals(segs []tracedSeg, t0, t1 Time) [NumSegKinds]float64 {
	var tot [NumSegKinds]float64
	for _, s := range segs {
		start, end := math.Float64frombits(s.start), math.Float64frombits(s.end)
		if start < t0 {
			start = t0
		}
		if end > t1 {
			end = t1
		}
		if end > start {
			tot[s.kind] += end - start
		}
	}
	return tot
}

// recoverErr runs fn and returns the error it panics with, or nil.
func recoverErr(fn func()) (err error) {
	defer func() { err, _ = recover().(error) }()
	fn()
	return nil
}

// TestWindowMatchesReference is the bit-identity property of the window
// summed as segments are booked: over random timelines whose window opens
// and closes at random points, each process's totals equal the reduction
// of everything the tracer received over [t0, t1], cell for cell.  The
// timelines carry segments booked before the window opens that straddle
// t0, retroactive recovery spans (Attribute, the shape pvm.ReportRecovery
// books, starting before the segments already booked), shutdown traffic
// booked after the close that starts before t1, and zero-length and
// inverted spans, which book nothing.
func TestWindowMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := segLog{}
		k := NewKernel(nil, log)
		k.HoldWindow()
		procs := make([]*Proc, 2+rng.Intn(6))
		for i := range procs {
			procs[i] = k.NewProc("proc", nil, nil)
		}
		t0 := 1 + 3*rng.Float64()
		t1 := t0 + 4*rng.Float64()
		// book books a random segment starting in [lo, hi), ending no
		// later than cap.
		book := func(lo, hi, cap Time) {
			p, kind := procs[rng.Intn(len(procs))], SegKind(rng.Intn(NumSegKinds))
			start := lo + (hi-lo)*rng.Float64()
			end := min(start+2*rng.Float64()*rng.Float64(), cap)
			switch rng.Intn(8) {
			case 0:
				end = start
			case 1:
				end = start - rng.Float64()
			}
			p.segment(kind, start, end)
		}
		for i := rng.Intn(200); i > 0; i-- {
			book(0, t0+0.5, t1) // init traffic, some straddling t0
		}
		k.OpenWindow(t0)
		for i := rng.Intn(600); i > 0; i-- {
			if rng.Intn(20) == 0 {
				end := t1 * rng.Float64()
				procs[rng.Intn(len(procs))].Attribute(SegRecovery, end*rng.Float64(), end)
				continue
			}
			book(0, t1, t1)
		}
		k.CloseWindow(t1)
		for i := rng.Intn(50); i > 0; i-- {
			book(t1-1, t1+2, math.Inf(1)) // shutdown traffic
		}
		ids := []int{len(procs), -1} // never booked
		for _, p := range procs {
			ids = append(ids, p.ID())
		}
		for i, tot := range k.WindowTotals(ids...) {
			want := refTotals(log[ids[i]], t0, t1)
			for kind := range tot {
				if math.Float64bits(tot[kind]) != math.Float64bits(want[kind]) {
					t.Fatalf("seed %d [%g,%g] proc %d: window %v, reference %v", seed, t0, t1, ids[i], tot, want)
				}
			}
		}
	}
}

// TestLateSegmentPanics books, before the close, a segment ending after
// the window's end — while the window is open, or before it opens — and
// CloseWindow must refuse with ErrLateSegment, since the window summed the
// segment unclipped.
func TestLateSegmentPanics(t *testing.T) {
	for _, held := range []bool{false, true} {
		k := NewKernel(nil, nil)
		k.HoldWindow()
		client, server := k.NewProc("client", nil, nil), k.NewProc("server", nil, nil)
		client.segment(SegCompute, 0, 1)
		if held {
			server.segment(SegCompute, 0.5, 3.5)
		}
		k.OpenWindow(1)
		client.segment(SegCompute, 1, 2)
		if !held {
			server.segment(SegCompute, 1.5, 3.5)
		}
		client.segment(SegIdle, 4, 4) // empty: cannot break the window
		if err := recoverErr(func() { k.CloseWindow(3) }); !errors.Is(err, ErrLateSegment) {
			t.Fatalf("held=%v: CloseWindow past a late segment: %v, want ErrLateSegment", held, err)
		}
	}
}

// TestWindowStates: a kernel never told to hold a window books nothing
// and ignores the window's ends, and each window call out of order panics.
func TestWindowStates(t *testing.T) {
	k := NewKernel(nil, nil)
	p := k.NewProc("p", nil, nil)
	p.Elapse(1, SegCompute)
	k.OpenWindow(0)
	p.Elapse(1, SegCompute)
	k.CloseWindow(1)
	if k.win.state != windowNone || k.win.held != nil || p.win != ([NumSegKinds]float64{}) || p.winEnd != 0 {
		t.Fatal("a kernel holding no window booked a segment")
	}
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	panics("WindowTotals of no window", func() { k.WindowTotals(0) })
	k.HoldWindow()
	panics("CloseWindow before OpenWindow", func() { k.CloseWindow(1) })
	panics("WindowTotals of a held window", func() { k.WindowTotals(0) })
	p.Elapse(1, SegComm)
	k.OpenWindow(2.5)
	panics("OpenWindow twice", func() { k.OpenWindow(2.5) })
	panics("WindowTotals of an open window", func() { k.WindowTotals(0) })
	p.Elapse(1, SegComm)
	k.CloseWindow(4)
	panics("CloseWindow twice", func() { k.CloseWindow(4) })
	if got := k.WindowTotals(0)[0]; got[SegComm] != 1.5 || got[SegCompute] != 0 {
		t.Fatalf("window totals %v, want 1.5 s of comm only", got)
	}
}
