package trace

import (
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
				if got := r.totalsBetween(t0, t1, id)[0]; !sameBits(got, want) {
					t.Fatalf("seed %d window [%g,%g] proc %d: alone %v, per-process %v", seed, t0, t1, id, got, want)
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
// than three chunk boundaries.
func TestRoundTripAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2; round++ {
		r := NewRecorder()
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
	}
}
