package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"opalperf/internal/vm"
)

func rec(segs ...Segment) *Recorder {
	r := NewRecorder()
	for _, s := range segs {
		r.Segment(s.Proc, s.Name, s.Kind, s.Start, s.End)
	}
	return r
}

func TestTotalsPerKind(t *testing.T) {
	r := rec(
		Segment{Proc: 0, Kind: vm.SegCompute, Start: 0, End: 2},
		Segment{Proc: 0, Kind: vm.SegComm, Start: 2, End: 3},
		Segment{Proc: 0, Kind: vm.SegCompute, Start: 3, End: 4.5},
		Segment{Proc: 1, Kind: vm.SegCompute, Start: 0, End: 10},
	)
	tot := r.Totals(0)
	if tot[vm.SegCompute] != 3.5 || tot[vm.SegComm] != 1 {
		t.Errorf("totals = %v", tot)
	}
	if r.Totals(1)[vm.SegCompute] != 10 {
		t.Error("proc 1 totals wrong")
	}
	if r.Totals(99) != ([vm.NumSegKinds]float64{}) {
		t.Error("unknown proc should have zero totals")
	}
}

func TestProcsSorted(t *testing.T) {
	r := rec(
		Segment{Proc: 5, Kind: vm.SegCompute, Start: 0, End: 1},
		Segment{Proc: 1, Kind: vm.SegCompute, Start: 0, End: 1},
		Segment{Proc: 5, Kind: vm.SegIdle, Start: 1, End: 2},
	)
	got := r.Procs()
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("procs = %v", got)
	}
}

func TestReset(t *testing.T) {
	r := rec(Segment{Proc: 0, Kind: vm.SegCompute, Start: 0, End: 1})
	r.Reset()
	if len(r.Segments()) != 0 {
		t.Error("reset did not clear segments")
	}
}

func TestComputeBreakdown(t *testing.T) {
	// Client 0: 1s compute, 2s comm, 0.5s sync.
	// Servers 1, 2: 6s and 8s compute.
	r := rec(
		Segment{Proc: 0, Kind: vm.SegCompute, Start: 0, End: 1},
		Segment{Proc: 0, Kind: vm.SegComm, Start: 1, End: 3},
		Segment{Proc: 0, Kind: vm.SegSync, Start: 3, End: 3.5},
		Segment{Proc: 1, Kind: vm.SegCompute, Start: 0, End: 6},
		Segment{Proc: 2, Kind: vm.SegCompute, Start: 0, End: 8},
	)
	b := ComputeBreakdown(r, 0, []int{1, 2}, 12)
	if b.ParComp != 7 || b.MaxParComp != 8 || b.MinParComp != 6 {
		t.Errorf("par = %v max = %v min = %v", b.ParComp, b.MaxParComp, b.MinParComp)
	}
	if b.SeqComp != 1 || b.Comm != 2 || b.Sync != 0.5 {
		t.Errorf("seq/comm/sync = %v/%v/%v", b.SeqComp, b.Comm, b.Sync)
	}
	wantIdle := 12 - 7 - 1 - 2 - 0.5
	if math.Abs(b.Idle-wantIdle) > 1e-12 {
		t.Errorf("idle = %v, want %v", b.Idle, wantIdle)
	}
	if math.Abs(b.Sum()-12) > 1e-12 {
		t.Errorf("sum = %v, want wall 12", b.Sum())
	}
	if math.Abs(b.Imbalance()-1.0/7.0) > 1e-12 {
		t.Errorf("imbalance = %v", b.Imbalance())
	}
}

func TestBreakdownNoServers(t *testing.T) {
	r := rec(Segment{Proc: 0, Kind: vm.SegCompute, Start: 0, End: 4})
	b := ComputeBreakdown(r, 0, nil, 4)
	if b.ParComp != 0 || b.SeqComp != 4 || b.Idle != 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if b.Imbalance() != 0 {
		t.Error("imbalance of serial run should be 0")
	}
}

func TestBreakdownNegativeIdleClamped(t *testing.T) {
	// Accounted client time exceeds the reported wall clock: idle clamps
	// to zero rather than going negative.
	r := rec(
		Segment{Proc: 0, Kind: vm.SegCompute, Start: 0, End: 10},
	)
	b := ComputeBreakdown(r, 0, nil, 5)
	if b.Idle != 0 {
		t.Errorf("idle = %v, want 0", b.Idle)
	}
}

func TestBreakdownOtherCountsAsCompute(t *testing.T) {
	r := rec(
		Segment{Proc: 0, Kind: vm.SegOther, Start: 0, End: 2},
		Segment{Proc: 1, Kind: vm.SegOther, Start: 0, End: 3},
	)
	b := ComputeBreakdown(r, 0, []int{1}, 3)
	if b.SeqComp != 2 || b.ParComp != 3 {
		t.Errorf("other not folded into compute: %+v", b)
	}
}

func TestComponentsOrder(t *testing.T) {
	b := Breakdown{ParComp: 1, SeqComp: 2, Comm: 3, Sync: 4, Idle: 5}
	names, vals := b.Components()
	if names[0] != "par comp" || vals[4] != 5 {
		t.Errorf("components = %v %v", names, vals)
	}
	if len(names) != len(vals) {
		t.Error("length mismatch")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Wall: 1, ParComp: 0.5}
	if !strings.Contains(b.String(), "wall") {
		t.Error("String missing wall")
	}
}

func TestRecorderWithKernel(t *testing.T) {
	r := NewRecorder()
	k := vm.NewKernel(vm.FixedCost{Overhead: 0.5, SyncDelay: 0.1}, r)
	k.NewProc("client", vm.ConstRate(1), func(p *vm.Proc) {
		p.Compute(2)
		p.Send(1, 0, nil, 0)
		p.RecvSrcTag(1, 1)
		p.Barrier("end", 2)
	})
	k.NewProc("server", vm.ConstRate(1), func(p *vm.Proc) {
		p.RecvSrcTag(-1, -1)
		p.Compute(5)
		p.Send(0, 1, nil, 0)
		p.Barrier("end", 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	b := ComputeBreakdown(r, 0, []int{1}, k.MaxTime())
	if b.SeqComp != 2 || b.ParComp != 5 {
		t.Errorf("breakdown = %+v", b)
	}
	// Comm counts both directions: client request (0.5) + server reply
	// (0.5).
	if math.Abs(b.Comm-1.0) > 1e-9 {
		t.Errorf("comm = %v, want 1.0", b.Comm)
	}
	if b.Sync <= 0 {
		t.Error("client should have sync time from the barrier")
	}
	// Everything accounted: sum equals wall and the idle residual is
	// zero for this fully serialized exchange.
	if math.Abs(b.Sum()-b.Wall) > 1e-9 {
		t.Errorf("sum %v != wall %v", b.Sum(), b.Wall)
	}
	if b.Idle > 1e-9 {
		t.Errorf("idle = %v, want 0", b.Idle)
	}
}

func TestSegmentsNonNilWhenEmpty(t *testing.T) {
	r := NewRecorder()
	if got := r.Segments(); got == nil || len(got) != 0 {
		t.Fatalf("empty recorder Segments() = %#v, want non-nil empty slice", got)
	}
	r.Segment(0, "p", vm.SegCompute, 0, 1)
	r.Reset()
	if got := r.Segments(); got == nil || len(got) != 0 {
		t.Fatalf("reset recorder Segments() = %#v, want non-nil empty slice", got)
	}
}

// TestResetRetainsCapacity pins the steady state of a reused recorder:
// refilling it up to its previous length — across several chunk
// boundaries, with segments of several processes and with flows — touches
// the allocator not once.
func TestResetRetainsCapacity(t *testing.T) {
	const n = 3*chunkLen + 17
	fill := func(r *Recorder) {
		for i := 0; i < n; i++ {
			p := i % 5
			r.Segment(p, procNames[p], vm.SegKind(i%vm.NumSegKinds), float64(i), float64(i)+0.5)
			if i%4 == 0 {
				r.Flow(methodNames[i%len(methodNames)], 0, 1+p, float64(i), float64(i)+0.25)
			}
		}
	}
	r := NewRecorder()
	fill(r)
	if r.Len() != n {
		t.Fatalf("Len() = %d after %d segments", r.Len(), n)
	}
	want := r.Segments()
	r.Reset()
	if r.Len() != 0 || len(r.Segments()) != 0 || len(r.Flows()) != 0 || len(r.Procs()) != 0 {
		t.Fatalf("Reset left %d segments, %d flows, procs %v", r.Len(), len(r.Flows()), r.Procs())
	}
	allocs := testing.AllocsPerRun(3, func() {
		r.Reset()
		fill(r)
	})
	if allocs != 0 {
		t.Fatalf("recording into reset recorder allocated %.0f times per run", allocs)
	}
	if got := r.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatal("refilled recorder does not hold the segments recorded")
	}
}

// The process and method names of an eight-server run.
var (
	procNames = []string{"opal-client", "opal-server-0", "opal-server-1", "opal-server-2",
		"opal-server-3", "opal-server-4", "opal-server-5", "opal-server-6", "opal-server-7"}
	methodNames = []string{"update", "nbint", "shutdown"}
)

func TestRecorderFlows(t *testing.T) {
	r := NewRecorder()
	if f := r.Flows(); f == nil || len(f) != 0 {
		t.Fatalf("empty recorder Flows() = %#v, want empty non-nil", f)
	}
	r.Flow("nbint", 0, 1, 0.5, 1.5)
	r.Flow("update", 0, 2, 0.6, 1.8)
	f := r.Flows()
	if len(f) != 2 {
		t.Fatalf("recorded %d flows, want 2", len(f))
	}
	if f[0].ID != 0 || f[1].ID != 1 {
		t.Fatalf("flow ids not in recording order: %+v", f)
	}
	want := Flow{ID: 1, Method: "update", Client: 0, Server: 2, Issue: 0.6, Reply: 1.8}
	if f[1] != want {
		t.Fatalf("flow = %+v, want %+v", f[1], want)
	}
	r.Reset()
	if len(r.Flows()) != 0 {
		t.Fatal("Reset did not clear flows")
	}
	r.Flow("nbint", 0, 1, 0, 1)
	if got := r.Flows()[0].ID; got != 0 {
		t.Fatalf("ids do not restart after Reset: %d", got)
	}
}
