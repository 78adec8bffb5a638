package trace

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"opalperf/internal/vm"
)

// refTotalsBetween is the reduction the single-pass table replaced, kept
// as the reference: one pass over the materialised trace filtered to one
// process.
func refTotalsBetween(segs []Segment, proc int, t0, t1 float64) kindTotals {
	var t kindTotals
	for _, s := range segs {
		if s.Proc != proc {
			continue
		}
		start, end := s.Start, s.End
		if start < t0 {
			start = t0
		}
		if end > t1 {
			end = t1
		}
		if end > start {
			t[s.Kind] += end - start
		}
	}
	return t
}

func sameBits(a, b kindTotals) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// randomTrace records n segments of a random interleaving: dense and
// sparse process ids (a respawned replacement server gets a fresh, large
// TID), a process occasionally recorded under a second name, every kind,
// zero-length and inverted spans.
func randomTrace(rng *rand.Rand, n int) (*Recorder, []Segment, []int) {
	ids := []int{0, 1, 2, 3, 17, 1<<16 + 3, 1<<16 + 4, 1 << 30}
	ids = ids[:2+rng.Intn(len(ids)-1)]
	r := NewRecorder()
	in := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		s := Segment{Proc: ids[rng.Intn(len(ids))], Kind: vm.SegKind(rng.Intn(vm.NumSegKinds))}
		s.Name = "proc"
		if rng.Intn(10) == 0 {
			s.Name = "proc (respawned)"
		}
		s.Start = 10 * rng.Float64()
		switch rng.Intn(8) {
		case 0:
			s.End = s.Start
		case 1:
			s.End = s.Start - rng.Float64()
		default:
			s.End = s.Start + rng.Float64()*rng.Float64()
		}
		r.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
		in = append(in, s)
	}
	return r, in, ids
}

// randomWindow draws a reduction window: open, straddling segments,
// zero-length, inverted, or beyond the trace.
func randomWindow(rng *rand.Rand) (t0, t1 float64) {
	switch rng.Intn(6) {
	case 0:
		return math.Inf(-1), math.Inf(1)
	case 1:
		t0 = 11 * rng.Float64()
		return t0, t0
	case 2:
		return 8 * rng.Float64(), 2 * rng.Float64()
	case 3:
		return 12, 13
	default:
		t0 = 10 * rng.Float64()
		return t0, t0 + 3*rng.Float64()
	}
}

// TestSinglePassTotalsMatchPerProcess is the bit-identity property the
// breakdown rests on: reducing every process in one pass gives each
// (process, kind) cell exactly the sum a pass of its own would.
func TestSinglePassTotalsMatchPerProcess(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		if seed%40 == 0 {
			n = 2*chunkLen + rng.Intn(chunkLen) // straddle chunk boundaries too
		}
		r, in, ids := randomTrace(rng, n)
		ids = append(ids, 99) // never recorded
		for w := 0; w < 4; w++ {
			t0, t1 := randomWindow(rng)
			all := r.totalsBetween(t0, t1, ids...)
			for i, id := range ids {
				want := refTotalsBetween(in, id, t0, t1)
				if !sameBits(all[i], want) {
					t.Fatalf("seed %d window [%g,%g] proc %d: table %v, per-process %v", seed, t0, t1, id, all[i], want)
				}
				if got := r.TotalsBetween(id, t0, t1); !sameBits(got, want) {
					t.Fatalf("seed %d window [%g,%g] proc %d: TotalsBetween %v, per-process %v", seed, t0, t1, id, got, want)
				}
			}
			// The breakdown's cross-process sums: client first, then the
			// servers in the order given.
			b := ComputeBreakdownBetween(r, ids[0], ids[1:], t0, t1, 10)
			comm := refTotalsBetween(in, ids[0], t0, t1)[vm.SegComm]
			for _, id := range ids[1:] {
				comm += refTotalsBetween(in, id, t0, t1)[vm.SegComm]
			}
			if math.Float64bits(b.Comm) != math.Float64bits(comm) {
				t.Fatalf("seed %d window [%g,%g]: breakdown comm %v, per-process %v", seed, t0, t1, b.Comm, comm)
			}
		}
	}
}

// TestRoundTripAcrossChunks checks that what Segments and Flows
// materialise is what was recorded — names, ids and order — over more
// than three chunk boundaries, and again after a Reset.
func TestRoundTripAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder()
	for round := 0; round < 2; round++ {
		n := 3*chunkLen + 1 + rng.Intn(chunkLen)
		var segs []Segment
		var flows []Flow
		procSet := map[int]bool{}
		for i := 0; i < n; i++ {
			p := rng.Intn(len(procNames))
			s := Segment{
				Proc: p * (1 + round*1000), Name: procNames[p], Kind: vm.SegKind(rng.Intn(vm.NumSegKinds)),
				Start: float64(i), End: float64(i) + rng.Float64(),
			}
			r.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
			segs = append(segs, s)
			procSet[s.Proc] = true

			f := Flow{
				ID: i, Method: methodNames[rng.Intn(len(methodNames))],
				Client: 0, Server: 1 + rng.Intn(8), Issue: float64(i), Reply: float64(i) + 0.5,
			}
			r.Flow(f.Method, f.Client, f.Server, f.Issue, f.Reply)
			flows = append(flows, f)
		}
		if r.Len() != n {
			t.Fatalf("round %d: Len() = %d, recorded %d", round, r.Len(), n)
		}
		if got := r.Segments(); !reflect.DeepEqual(got, segs) {
			t.Fatalf("round %d: Segments() differs from the recorded input", round)
		}
		if got := r.Flows(); !reflect.DeepEqual(got, flows) {
			t.Fatalf("round %d: Flows() differs from the recorded input", round)
		}
		if got := r.Procs(); len(got) != len(procSet) {
			t.Fatalf("round %d: Procs() = %v, want the %d recorded", round, got, len(procSet))
		}
		r.Reset()
	}
}

// TestWindowTableMatchesReference is the bit-identity property of the
// window summed at record time: over random traces whose window opens and
// closes at random points, the table equals the per-process reference
// reduction of everything recorded, cell for cell, and the breakdown read
// from it equals the one a chunk reduction gives.  The traces carry
// segments recorded before the window opens that straddle t0, retroactive
// recovery spans (the shape pvm.ReportRecovery records, starting before
// the segments already recorded), shutdown traffic recorded after the
// close that starts before t1, sparse TIDs, and a Reset between windows.
// Half the recorders keep their intervals, half drop them.
func TestWindowTableMatchesReference(t *testing.T) {
	ids := []int{0, 1, 2, 3, 17, 1<<16 + 3, 1 << 30}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keep := seed%2 == 0
		r := NewWindowRecorder()
		if keep {
			r = NewRecorder()
		}
		procs := ids[:2+rng.Intn(len(ids)-1)]
		for round := 0; round < 1+rng.Intn(3); round++ {
			if round > 0 {
				r.Reset()
			}
			t0 := 1 + 3*rng.Float64()
			t1 := t0 + 4*rng.Float64()
			var in []Segment
			record := func(s Segment) {
				r.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
				in = append(in, s)
			}
			// draw is a random segment starting in [lo, hi), ending no
			// later than cap: zero-length and inverted spans included.
			draw := func(lo, hi, cap float64) Segment {
				s := Segment{Proc: procs[rng.Intn(len(procs))], Name: "proc", Kind: vm.SegKind(rng.Intn(vm.NumSegKinds))}
				if rng.Intn(10) == 0 {
					s.Name = "proc (respawned)"
				}
				s.Start = lo + (hi-lo)*rng.Float64()
				switch rng.Intn(8) {
				case 0:
					s.End = s.Start
				case 1:
					s.End = s.Start - rng.Float64()
				default:
					s.End = min(s.Start+2*rng.Float64()*rng.Float64(), cap)
				}
				return s
			}
			for i := rng.Intn(200); i > 0; i-- {
				record(draw(0, t0+0.5, t1)) // init traffic, some straddling t0
			}
			r.OpenWindow(t0)
			for i := rng.Intn(600); i > 0; i-- {
				s := draw(0, t1, t1)
				if rng.Intn(20) == 0 {
					s.Kind, s.End = vm.SegRecovery, t1*rng.Float64()
					s.Start = s.End * rng.Float64()
				}
				record(s)
			}
			r.CloseWindow(t1)
			for i := rng.Intn(50); i > 0; i-- {
				record(draw(t1-1, t1+2, math.Inf(1))) // shutdown traffic
			}
			if r.Len() != len(in) {
				t.Fatalf("seed %d: Len() = %d, recorded %d", seed, r.Len(), len(in))
			}
			if got := len(r.Segments()); keep && got != len(in) || !keep && got != 0 {
				t.Fatalf("seed %d: keep=%v recorder retains %d of %d segments", seed, keep, got, len(in))
			}
			all := append(append([]int(nil), procs...), 99) // 99 never recorded
			table := r.totalsBetween(t0, t1, all...)
			for i, id := range all {
				if want := refTotalsBetween(in, id, t0, t1); !sameBits(table[i], want) {
					t.Fatalf("seed %d round %d [%g,%g] proc %d: table %v, reference %v", seed, round, t0, t1, id, table[i], want)
				}
			}
			ref := NewRecorder()
			for _, s := range in {
				ref.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
			}
			got := ComputeBreakdownBetween(r, procs[0], procs[1:], t0, t1, t1-t0)
			want := ComputeBreakdownBetween(ref, procs[0], procs[1:], t0, t1, t1-t0)
			if got != want {
				t.Fatalf("seed %d round %d: window breakdown %+v, chunk reduction %+v", seed, round, got, want)
			}
		}
	}
}

// TestLateSegmentPanics records, before the close, a segment ending after
// the window's end: CloseWindow must refuse with ErrLateSegment, since the
// table summed the segment unclipped.
func TestLateSegmentPanics(t *testing.T) {
	for _, keep := range []bool{true, false} {
		r := NewWindowRecorder()
		if keep {
			r = NewRecorder()
		}
		r.Segment(0, "client", vm.SegCompute, 0, 1)
		r.OpenWindow(1)
		r.Segment(0, "client", vm.SegCompute, 1, 2)
		r.Segment(1<<30, "server", vm.SegCompute, 1.5, 3.5)
		r.Segment(0, "client", vm.SegIdle, 4, 4) // empty: cannot break the table
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			r.CloseWindow(3)
			return nil
		}()
		if !errors.Is(err, ErrLateSegment) {
			t.Fatalf("keep=%v: CloseWindow past a late segment: %v, want ErrLateSegment", keep, err)
		}
	}
}

// TestWindowRecorderRefusesOtherWindows: a window recorder answers its own
// window and panics with ErrIntervalsDropped on any reader that needs the
// intervals it dropped.
func TestWindowRecorderRefusesOtherWindows(t *testing.T) {
	r := NewWindowRecorder()
	r.Segment(0, "client", vm.SegCompute, 0, 2)
	r.Flow("nbint", 0, 1, 0, 1)
	if len(r.Segments()) != 1 || len(r.Flows()) != 1 {
		t.Fatal("a window recorder must keep what precedes its window")
	}
	r.OpenWindow(1)
	r.Segment(1, "server", vm.SegCompute, 1, 3)
	r.CloseWindow(3)
	if got := ComputeBreakdownBetween(r, 0, []int{1}, 1, 3, 2); got.SeqComp != 1 || got.ParComp != 2 {
		t.Fatalf("own window breakdown %+v", got)
	}
	readers := map[string]func(){
		"other window":  func() { r.TotalsBetween(0, 0, 3) },
		"totals":        func() { r.Totals(1) },
		"timeline":      func() { RenderTimeline(r, nil, 0, 3, 10) },
		"chrome":        func() { WriteChromeTrace(io.Discard, r, nil) },
		"critical path": func() { ComputeCriticalPath(r, 0, 1, 3) },
		"sampler":       func() { SampleShares(r, 1, 1, 3, 0.5) },
		"reopen":        func() { r.OpenWindow(0) },
	}
	for name, read := range readers {
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			read()
			return nil
		}()
		if !errors.Is(err, ErrIntervalsDropped) {
			t.Errorf("%s on a window recorder: %v, want ErrIntervalsDropped", name, err)
		}
	}
}
