package md

import (
	"runtime"
	"runtime/debug"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
)

// Steady-state allocation regression tests: the per-step force path —
// the row kernel over the pair list and both list updates — must not
// touch the heap once the scratch storage has been grown by the first
// step.

func allocTestSystem() (*molecule.System, *nbData, *pairlist.List, []float64, []float64) {
	sys := molecule.Generate(molecule.Config{
		Name: "alloc", SoluteAtoms: 40, Waters: 120, Seed: 11, Interleave: true,
	})
	d := newNBData(sys, 10)
	owners := pairlist.Owners(sys.N, 1, pairlist.LCG, 1)
	list := pairlist.NewList(sys.N, pairlist.RowsOf(owners, 0))
	pos := append([]float64(nil), sys.Pos...)
	grad := make([]float64, 3*sys.N)
	return sys, d, list, pos, grad
}

func TestEvalListZeroAlloc(t *testing.T) {
	_, d, list, pos, grad := allocTestSystem()
	list.Update(pos, d.cutoff, d.excl)
	if list.NActive == 0 {
		t.Fatal("empty pair list, test is vacuous")
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := range grad {
			grad[i] = 0
		}
		d.evalList(pos, list, grad)
	})
	if allocs != 0 {
		t.Errorf("evalList allocates %.1f objects per step, want 0", allocs)
	}
}

// TestListUpdateZeroAlloc repeats the update on unchanged positions, which
// only filters the list's retained candidates.
func TestListUpdateZeroAlloc(t *testing.T) {
	_, d, list, pos, _ := allocTestSystem()
	// The first update grows the per-row partner storage; steady-state
	// updates must reuse it.
	list.Update(pos, d.cutoff, d.excl)
	allocs := testing.AllocsPerRun(20, func() {
		list.Update(pos, d.cutoff, d.excl)
	})
	if allocs != 0 {
		t.Errorf("Update allocates %.1f objects per update, want 0", allocs)
	}
	if list.Rebuilds != 1 {
		t.Errorf("%d candidate rebuilds on unchanged positions, want the first only", list.Rebuilds)
	}
	// What the server declares as its working set counts the active
	// pairs alone, not the candidates kept behind them (the number is the
	// one the all-pairs update gave before candidates existed).
	if ws := list.Bytes() + d.bytes() + 8*len(pos)*2; list.Bytes() != 4*list.NActive || ws != 42412 {
		t.Errorf("working set %d B with a %d B list of %d pairs, want 42412 B and 4 B a pair", ws, list.Bytes(), list.NActive)
	}
}

// TestListUpdateRebuildZeroAlloc alternates two position sets further
// apart than the list's skin, so every update sweeps all pairs, copies the
// reference positions and refills the candidate storage.
func TestListUpdateRebuildZeroAlloc(t *testing.T) {
	_, d, list, pos, _ := allocTestSystem()
	moved := append([]float64(nil), pos...)
	for k := range moved {
		moved[k] += 3
	}
	sets := [2][]float64{pos, moved}
	list.Update(sets[0], d.cutoff, d.excl)
	list.Update(sets[1], d.cutoff, d.excl)
	before, n := list.Rebuilds, 0
	allocs := testing.AllocsPerRun(20, func() {
		list.Update(sets[n%2], d.cutoff, d.excl)
		n++
	})
	if allocs != 0 {
		t.Errorf("Update allocates %.1f objects per candidate rebuild, want 0", allocs)
	}
	if list.Rebuilds-before != n {
		t.Errorf("%d of %d updates rebuilt the candidates, want all", list.Rebuilds-before, n)
	}
}

func TestListUpdateCellsZeroAlloc(t *testing.T) {
	sys, d, list, pos, _ := allocTestSystem()
	list.UpdateCells(pos, d.cutoff, sys.Box, d.excl)
	allocs := testing.AllocsPerRun(20, func() {
		list.UpdateCells(pos, d.cutoff, sys.Box, d.excl)
	})
	if allocs != 0 {
		t.Errorf("UpdateCells allocates %.1f objects per rebuild, want 0", allocs)
	}
}

// TestAheadPhaseLoopZeroAlloc: with handlers running ahead on a second
// core, the accounting-mode step loop — fine-grained and macro-replayed —
// allocates nothing per phase once the first steps have grown the lanes,
// their call records and the helper's stack.  The budget tolerates the
// step records' amortized growth and stray runtime bookkeeping (about ten
// objects however long the window), not a per-phase allocation, which
// would read at least 1.  The cut-off is ineffective, so the minimizer's
// moves never regrow a pair list's retained candidates.
func TestAheadPhaseLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates in the macro walk's scratch resets")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, measured = 4, 64
	for _, lod := range []LoDMode{LoDOff, LoDAuto} {
		var m0, m1 runtime.MemStats
		opts := Options{UpdateEvery: 1, Accounting: true, Minimize: true, LoD: lod,
			AfterStep: func(step int, _ StepInfo) {
				switch step {
				case warm - 1:
					runtime.ReadMemStats(&m0)
				case warm + measured - 1:
					runtime.ReadMemStats(&m1)
				}
			}}
		s := pvm.NewSimVM(platform.J90(), nil)
		var err error
		s.SpawnRoot("opal-client", func(task pvm.Task) {
			_, err = RunParallel(task, aheadSystem(1), opts, 3, warm+measured)
		})
		if e := s.Run(); e != nil || err != nil {
			t.Fatal(e, err)
		}
		if s.AheadRuns() == 0 {
			t.Fatalf("%v: no handler ran ahead; the test is vacuous", lod)
		}
		if perPhase := float64(m1.Mallocs-m0.Mallocs) / (2 * measured); perPhase > 0.25 {
			t.Errorf("%v: the phase loop allocates %.3f objects per phase with run-ahead engaged", lod, perPhase)
		}
	}
}
