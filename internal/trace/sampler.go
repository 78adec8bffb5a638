package trace

import (
	"sort"

	"opalperf/internal/vm"
)

// Sampler reproduces the behaviour of the sampling-based performance
// tools the paper warns about (Section 3.2): "Sampling based tools give a
// direct estimate for the compute rate in MFlop/s and are easy to use,
// but they are extremely complex to understand.  Sampled computation
// rates are no substitute for the simple ratio of operations counted
// divided by the cycles used."
//
// SampleShares probes a process's recorded timeline at a fixed period and
// attributes each whole period to whatever the process was doing at the
// sample instant.  Short phases alias: a process that alternates 1 ms of
// communication with 9 ms of computation looks 100% busy to a 10 ms
// sampler that happens to land on the compute phase — or 100% idle if it
// lands in the gaps.  Comparing the sampled shares against the exact
// TotalsBetween quantifies the bias.
func SampleShares(r *Recorder, proc int, t0, t1, period float64) [vm.NumSegKinds]float64 {
	var counts [vm.NumSegKinds]float64
	if period <= 0 || t1 <= t0 {
		return counts
	}
	idx := buildProcIndex(r, proc)
	total := 0.0
	for t := t0 + period/2; t < t1; t += period {
		kind, ok := idx.stateAt(t)
		if ok {
			counts[kind]++
		}
		total++
	}
	if total == 0 {
		return counts
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}

// procIndex is one process's segments sorted by start time, with a prefix
// maximum over end times so point queries can bound their backward scan.
// Building it once turns the former O(segments × samples) probe loop into
// O(segments·log segments + samples·log segments).
type procIndex struct {
	segs   []segRec  // this process only, sorted by start (stable)
	maxEnd []float64 // maxEnd[i] = max(segs[0..i].end)
}

func buildProcIndex(r *Recorder, proc int) procIndex {
	var idx procIndex
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			if r.tracks[s.track].proc == proc {
				idx.segs = append(idx.segs, s)
			}
		}
	}
	sort.SliceStable(idx.segs, func(i, j int) bool { return idx.segs[i].start < idx.segs[j].start })
	idx.maxEnd = make([]float64, len(idx.segs))
	for i, s := range idx.segs {
		idx.maxEnd[i] = s.end
		if i > 0 && idx.maxEnd[i-1] > s.end {
			idx.maxEnd[i] = idx.maxEnd[i-1]
		}
	}
	return idx
}

// stateAt finds a segment covering time t.  It binary-searches for the
// last segment starting at or before t and walks backwards only while the
// prefix maximum of end times proves a covering segment may still exist —
// on the kernel's sequential (non-overlapping) per-process timelines that
// walk inspects exactly one segment.  Where segments do overlap (e.g. a
// ReportRecovery window layered over the spans recorded inside it), the
// latest-starting covering segment wins.
func (x procIndex) stateAt(t float64) (vm.SegKind, bool) {
	// First segment with Start > t; candidates are everything before it.
	i := sort.Search(len(x.segs), func(i int) bool { return x.segs[i].start > t }) - 1
	for ; i >= 0 && x.maxEnd[i] > t; i-- {
		if s := x.segs[i]; s.start <= t && t < s.end {
			return vm.SegKind(s.kind), true
		}
	}
	return 0, false
}

// SamplingBias compares the sampled compute share against the exact one
// and returns the absolute error — the quantity that made the paper
// insist on counted operations over sampling.
func SamplingBias(r *Recorder, proc int, t0, t1, period float64) float64 {
	exact := r.TotalsBetween(proc, t0, t1)
	wall := t1 - t0
	if wall <= 0 {
		return 0
	}
	exactShare := exact[vm.SegCompute] / wall
	sampled := SampleShares(r, proc, t0, t1, period)
	d := sampled[vm.SegCompute] - exactShare
	if d < 0 {
		d = -d
	}
	return d
}
