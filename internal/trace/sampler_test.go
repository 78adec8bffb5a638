package trace

import (
	"math"
	"testing"

	"opalperf/internal/vm"
)

// alternating builds a timeline alternating compute (dc) and comm (dm)
// phases over [0, total).
func alternating(dc, dm, total float64) *Recorder {
	r := NewRecorder()
	t := 0.0
	for t < total {
		r.Segment(0, "p", vm.SegCompute, t, t+dc)
		r.Segment(0, "p", vm.SegComm, t+dc, t+dc+dm)
		t += dc + dm
	}
	return r
}

func TestSampleSharesFineSamplingConverges(t *testing.T) {
	r := alternating(0.009, 0.001, 1.0) // 90% compute
	shares := SampleShares(r, 0, 0, 1, 1e-4)
	if math.Abs(shares[vm.SegCompute]-0.9) > 0.02 {
		t.Errorf("fine-sampled compute share = %v, want ~0.9", shares[vm.SegCompute])
	}
	if math.Abs(shares[vm.SegComm]-0.1) > 0.02 {
		t.Errorf("fine-sampled comm share = %v, want ~0.1", shares[vm.SegComm])
	}
}

// TestCoarseSamplingAliases is the paper's Section 3.2 point: a sampler
// whose period resonates with the phase structure reports a wildly wrong
// rate, while the counted ratio is exact.
func TestCoarseSamplingAliases(t *testing.T) {
	// Phases repeat every 10 ms; sampling every 10 ms starting at 5 ms
	// always lands in the 9 ms compute phase: it reports 100% compute
	// although the true share is 90%.
	r := alternating(0.009, 0.001, 1.0)
	shares := SampleShares(r, 0, 0, 1, 0.01)
	if shares[vm.SegCompute] != 1.0 {
		t.Errorf("aliased compute share = %v, want exactly 1.0", shares[vm.SegCompute])
	}
	bias := SamplingBias(r, 0, 0, 1, 0.01)
	if math.Abs(bias-0.1) > 1e-9 {
		t.Errorf("sampling bias = %v, want 0.1", bias)
	}
	// The counted (exact) accounting has no such bias.
	exact := r.TotalsBetween(0, 0, 1)
	if math.Abs(exact[vm.SegCompute]-0.9) > 1e-9 {
		t.Errorf("counted compute = %v", exact[vm.SegCompute])
	}
}

func TestSampleSharesUntrackedGaps(t *testing.T) {
	r := NewRecorder()
	r.Segment(0, "p", vm.SegCompute, 0, 0.25) // then silence
	shares := SampleShares(r, 0, 0, 1, 0.01)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-0.25) > 0.05 {
		t.Errorf("tracked share = %v, want ~0.25 (gaps unattributed)", sum)
	}
}

func TestSampleSharesDegenerate(t *testing.T) {
	r := NewRecorder()
	if s := SampleShares(r, 0, 0, 1, 0); s != ([vm.NumSegKinds]float64{}) {
		t.Error("zero period should give zeros")
	}
	if s := SampleShares(r, 0, 1, 1, 0.1); s != ([vm.NumSegKinds]float64{}) {
		t.Error("empty window should give zeros")
	}
	if SamplingBias(r, 0, 1, 1, 0.1) != 0 {
		t.Error("empty window bias should be 0")
	}
}

// naiveStateAt is the pre-index reference implementation: first segment
// in recording order covering t wins.
func naiveStateAt(segs []Segment, proc int, t float64) (vm.SegKind, bool) {
	for _, s := range segs {
		if s.Proc == proc && s.Start <= t && t < s.End {
			return s.Kind, true
		}
	}
	return 0, false
}

// TestSampleSharesLargeTimelineMatchesNaive drives the indexed lookup
// over a large multi-process timeline with untracked gaps and checks
// every probe against the naive linear scan.  With 16k segments and 8k
// samples the old O(segments x samples) loop was the hot spot of
// post-run analysis; the index answers the same probes from a binary
// search.
func TestSampleSharesLargeTimelineMatchesNaive(t *testing.T) {
	r := NewRecorder()
	const procs = 4
	const perProc = 4000
	// Deterministic irregular phases: lengths from a tiny LCG, occasional
	// gaps so some samples land on untracked time.
	lcg := uint64(12345)
	next := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return float64(lcg>>40) / float64(1<<24)
	}
	for p := 0; p < procs; p++ {
		now := 0.0
		for i := 0; i < perProc; i++ {
			d := 1e-4 + 1e-3*next()
			kind := vm.SegKind(i % vm.NumSegKinds)
			if i%17 == 0 {
				now += 5e-4 * next() // untracked gap
			}
			r.Segment(p, "p", kind, now, now+d)
			now += d
		}
	}
	segs := r.Segments()
	const t0, t1, period = 0.0, 2.0, 2.5e-4
	for p := 0; p < procs; p++ {
		idx := buildProcIndex(r, p)
		for probe := t0 + period/2; probe < t1; probe += period {
			gotKind, gotOK := idx.stateAt(probe)
			wantKind, wantOK := naiveStateAt(segs, p, probe)
			if gotOK != wantOK || (gotOK && gotKind != wantKind) {
				t.Fatalf("proc %d t=%g: indexed (%v,%v) != naive (%v,%v)",
					p, probe, gotKind, gotOK, wantKind, wantOK)
			}
		}
	}
	// And the aggregate shares agree with the exact accounting direction:
	// fine sampling converges on TotalsBetween.
	shares := SampleShares(r, 0, 0, 1, 1e-5)
	exact := r.TotalsBetween(0, 0, 1)
	for k := 0; k < vm.NumSegKinds; k++ {
		if math.Abs(shares[k]-exact[k]) > 0.01 {
			t.Fatalf("kind %d: fine-sampled share %v far from exact %v", k, shares[k], exact[k])
		}
	}
}

// TestStateAtOverlappingSegments pins the documented overlap rule: the
// latest-starting covering segment wins (a ReportRecovery window layered
// over the spans recorded inside it reports the inner span).
func TestStateAtOverlappingSegments(t *testing.T) {
	r := NewRecorder()
	r.Segment(0, "p", vm.SegRecovery, 0, 1.0) // outer recovery window
	r.Segment(0, "p", vm.SegComm, 0.4, 0.6)   // inner span recorded later
	idx := buildProcIndex(r, 0)
	if k, ok := idx.stateAt(0.5); !ok || k != vm.SegComm {
		t.Fatalf("overlap at 0.5 = (%v,%v), want inner comm span", k, ok)
	}
	if k, ok := idx.stateAt(0.2); !ok || k != vm.SegRecovery {
		t.Fatalf("outside inner span at 0.2 = (%v,%v), want recovery", k, ok)
	}
	if _, ok := idx.stateAt(1.5); ok {
		t.Fatal("probe past every segment should be uncovered")
	}
}
