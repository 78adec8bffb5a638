package trace

import (
	"math"
	"testing"

	"opalperf/internal/vm"
)

// Table-driven aggregation edge cases: the recorder must sum exactly what
// was recorded regardless of the order, overlap or degeneracy of the
// segments — the guarantees the breakdown figures rest on.
func TestTotalsBetweenAggregation(t *testing.T) {
	type seg struct {
		proc       int
		kind       vm.SegKind
		start, end float64
	}
	inf := math.Inf(1)
	cases := []struct {
		name   string
		segs   []seg
		proc   int
		t0, t1 float64
		want   map[vm.SegKind]float64
	}{
		{
			name: "zero-duration spans contribute nothing",
			segs: []seg{
				{0, vm.SegCompute, 1, 1},
				{0, vm.SegComm, 2, 2},
				{0, vm.SegCompute, 3, 4},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegCompute: 1},
		},
		{
			name: "out-of-order recording aggregates the same",
			segs: []seg{
				{0, vm.SegComm, 5, 6},
				{0, vm.SegCompute, 0, 2},
				{0, vm.SegComm, 2, 3},
				{0, vm.SegCompute, 3, 5},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegCompute: 4, vm.SegComm: 2},
		},
		{
			name: "overlapping spans of one kind double-count by design",
			// The recorder is a pure accumulator; overlap handling (e.g.
			// a retransmission during an idle wait) is the emitter's
			// responsibility, and the sum must reflect what was emitted.
			segs: []seg{
				{0, vm.SegIdle, 0, 4},
				{0, vm.SegRecovery, 1, 2},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegIdle: 4, vm.SegRecovery: 1},
		},
		{
			name: "window clips partially overlapping segments",
			segs: []seg{
				{0, vm.SegCompute, 0, 10}, // 4 inside [3, 7]
				{0, vm.SegComm, 6, 8},     // 1 inside
				{0, vm.SegSync, 8, 9},     // outside
			},
			proc: 0, t0: 3, t1: 7,
			want: map[vm.SegKind]float64{vm.SegCompute: 4, vm.SegComm: 1},
		},
		{
			name: "window before all segments is empty",
			segs: []seg{{0, vm.SegCompute, 5, 9}},
			proc: 0, t0: 0, t1: 4,
			want: map[vm.SegKind]float64{},
		},
		{
			name: "inverted segment is ignored",
			segs: []seg{
				{0, vm.SegCompute, 4, 3},
				{0, vm.SegCompute, 0, 1},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegCompute: 1},
		},
		{
			name: "recovery aggregates apart from idle and sync",
			segs: []seg{
				{0, vm.SegIdle, 0, 1},
				{0, vm.SegRecovery, 1, 1.5},
				{0, vm.SegSync, 1.5, 2},
				{0, vm.SegRecovery, 2, 2.25},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegIdle: 1, vm.SegRecovery: 0.75, vm.SegSync: 0.5},
		},
		{
			name: "other processes never leak in",
			segs: []seg{
				{0, vm.SegCompute, 0, 1},
				{1, vm.SegCompute, 0, 100},
				{2, vm.SegRecovery, 0, 7},
			},
			proc: 0, t0: -inf, t1: inf,
			want: map[vm.SegKind]float64{vm.SegCompute: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			for _, s := range tc.segs {
				r.Segment(s.proc, "p", s.kind, s.start, s.end)
			}
			got := r.totalsBetween(tc.t0, tc.t1, tc.proc)[0]
			for k := vm.SegKind(0); k < vm.NumSegKinds; k++ {
				if want := tc.want[k]; math.Abs(got[k]-want) > 1e-12 {
					t.Errorf("%v: got %v, want %v", k, got[k], want)
				}
			}
		})
	}
}

// The breakdown identity: every accounted component is non-negative and
// the six-way sum reproduces the wall clock exactly (idle is defined as
// the remainder, clamped at zero).
func TestBreakdownSumsToWall(t *testing.T) {
	cases := []struct {
		name    string
		build   func(r *Recorder)
		servers []int
		wall    float64
		// wantRecovery pins the recovery component; -1 skips the check.
		wantRecovery float64
	}{
		{
			name: "fault-free client and two servers",
			build: func(r *Recorder) {
				r.Segment(0, "client", vm.SegCompute, 0, 1)
				r.Segment(0, "client", vm.SegComm, 1, 3)
				r.Segment(0, "client", vm.SegSync, 3, 3.5)
				r.Segment(1, "s0", vm.SegCompute, 0, 6)
				r.Segment(2, "s1", vm.SegCompute, 0, 8)
			},
			servers: []int{1, 2}, wall: 12, wantRecovery: 0,
		},
		{
			name: "client recovery window counts once",
			build: func(r *Recorder) {
				r.Segment(0, "client", vm.SegCompute, 0, 2)
				r.Segment(0, "client", vm.SegRecovery, 2, 2.5)
				r.Segment(1, "s0", vm.SegCompute, 0, 4)
			},
			servers: []int{1}, wall: 8, wantRecovery: 0.5,
		},
		{
			name: "server recovery joins the client's",
			build: func(r *Recorder) {
				r.Segment(0, "client", vm.SegRecovery, 0, 1)
				r.Segment(1, "s0", vm.SegRecovery, 1, 1.25)
				r.Segment(2, "s1", vm.SegCompute, 0, 3)
			},
			servers: []int{1, 2}, wall: 5, wantRecovery: 1.25,
		},
		{
			name: "no servers at all",
			build: func(r *Recorder) {
				r.Segment(0, "client", vm.SegCompute, 0, 3)
			},
			servers: nil, wall: 4, wantRecovery: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			tc.build(r)
			b := ComputeBreakdown(r, 0, tc.servers, tc.wall)
			if math.Abs(b.Sum()-tc.wall) > 1e-12 {
				t.Errorf("sum %v != wall %v", b.Sum(), tc.wall)
			}
			for i, v := range []float64{b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Recovery, b.Idle} {
				if v < 0 {
					t.Errorf("component %d negative: %v", i, v)
				}
			}
			if tc.wantRecovery >= 0 && math.Abs(b.Recovery-tc.wantRecovery) > 1e-12 {
				t.Errorf("recovery %v, want %v", b.Recovery, tc.wantRecovery)
			}
			// The five-way view must stay byte-stable for fault-free runs:
			// recovery simply does not appear in it.
			names, five := b.Components()
			if len(names) != 5 || len(five) != 5 {
				t.Fatalf("five-way breakdown has %d components", len(five))
			}
		})
	}
}
