package trace

import (
	"testing"

	"opalperf/internal/vm"
)

// The shape of one fault-free comm-bound op at the front door (bench/
// workload sim-faultfree): a client and eight servers, 58 471 segments
// charged a span or two per process at a time.
const benchSegments = 58471

// recordOp records segment i of the op shape into r.
func recordOp(r *Recorder, i int) {
	p := (i / 2) % len(procNames)
	t := float64(i) * 1e-3
	r.Segment(p, procNames[p], vm.SegKind(i%vm.NumSegKinds), t, t+1e-3)
}

// BenchmarkRecorderSegment is the cost of one Segment call as a run pays
// it: a fresh recorder per op, so the chunks' allocation is in the number,
// amortised over the 4096 records each one holds.
func BenchmarkRecorderSegment(b *testing.B) {
	b.ReportAllocs()
	r := NewRecorder()
	for i, n := 0, 0; i < b.N; i, n = i+1, n+1 {
		if n == benchSegments {
			r, n = NewRecorder(), 0
		}
		recordOp(r, n)
	}
}

var sinkBreakdown Breakdown

// BenchmarkComputeBreakdown reduces one op's trace to the paper's
// breakdown over the measurement window, as harness.Run does once a run.
func BenchmarkComputeBreakdown(b *testing.B) {
	r := NewRecorder()
	for i := 0; i < benchSegments; i++ {
		recordOp(r, i)
	}
	servers := make([]int, len(procNames)-1)
	for i := range servers {
		servers[i] = i + 1
	}
	t0, t1 := 0.05*benchSegments*1e-3, 0.95*benchSegments*1e-3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBreakdown = ComputeBreakdownBetween(r, 0, servers, t0, t1, t1-t0)
	}
}
