package decomp

import (
	"math"
	"testing"

	"opalperf/internal/forcefield"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
)

// newNBTables builds the tables of sys directly; eval evaluates one
// (i, j) pair from them, accumulating the gradient.
func newNBTables(sys *molecule.System) *nbTables {
	return &nbTables{
		types:   sys.Type,
		charges: sys.Charge,
		lj:      forcefield.BuildLJ(forcefield.DefaultLJ()),
		excl:    forcefield.BuildExclusions(sys),
	}
}

func (tb *nbTables) eval(pos []float64, i, j int, grad []float64) (evdw, ecoul float64, charged bool) {
	c12, c6 := tb.lj.Coeffs(tb.types[i], tb.types[j])
	qq := forcefield.CoulombK * tb.charges[i] * tb.charges[j]
	ev, ec := forcefield.PairEnergy(pos, i, j, c12, c6, qq, grad)
	return ev, ec, qq != 0
}

// refNB computes the reference non-bonded energy over all non-excluded
// pairs (optionally within the cut-off) with the shared tables.
func refNB(sys *molecule.System, cutoff float64) (evdw, ecoul float64, pairs int) {
	tb := newNBTables(sys)
	grad := make([]float64, 3*sys.N)
	c2 := cutoff * cutoff
	for i := 0; i < sys.N; i++ {
		for j := i + 1; j < sys.N; j++ {
			if cutoff > 0 {
				dx := sys.Pos[3*i] - sys.Pos[3*j]
				dy := sys.Pos[3*i+1] - sys.Pos[3*j+1]
				dz := sys.Pos[3*i+2] - sys.Pos[3*j+2]
				if dx*dx+dy*dy+dz*dz > c2 {
					continue
				}
			}
			if tb.excl.Excluded(i, j) {
				continue
			}
			ev, ec, _ := tb.eval(sys.Pos, i, j, grad)
			evdw += ev
			ecoul += ec
			pairs++
		}
	}
	return evdw, ecoul, pairs
}

func runMethod(t *testing.T, method func(pvm.Task, *molecule.System, Options, int, int) (*Result, error),
	sys *molecule.System, opts Options, p, steps int) *Result {
	t.Helper()
	return runMethodOn(t, platform.J90(), method, sys, opts, p, steps)
}

func runMethodOn(t *testing.T, pl *platform.Platform,
	method func(pvm.Task, *molecule.System, Options, int, int) (*Result, error),
	sys *molecule.System, opts Options, p, steps int) *Result {
	t.Helper()
	sim := pvm.NewSimVM(pl, nil)
	var res *Result
	var err error
	sim.SpawnRoot("coordinator", func(task pvm.Task) {
		res, err = method(task, sys, opts, p, steps)
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func close2(a, b float64) bool {
	return math.Abs(a-b) <= 1e-8*(1+math.Abs(a)+math.Abs(b))
}

func TestSDMatchesReference(t *testing.T) {
	sys := molecule.TestComplex(40, 80, 5)
	for _, cutoff := range []float64{0, 8} {
		wantV, wantC, wantPairs := refNB(sys, cutoff)
		for _, p := range []int{1, 2, 3, 5} {
			res := runMethod(t, RunSD, sys, Options{Cutoff: cutoff}, p, 2)
			for step, se := range res.Steps {
				if !close2(se.EVdw, wantV) || !close2(se.ECoul, wantC) {
					t.Errorf("SD cutoff=%v p=%d step %d: E = (%v, %v), want (%v, %v)",
						cutoff, p, step, se.EVdw, se.ECoul, wantV, wantC)
				}
				if se.ActivePairs != wantPairs {
					t.Errorf("SD cutoff=%v p=%d: pairs %d, want %d", cutoff, p, se.ActivePairs, wantPairs)
				}
			}
		}
	}
}

func TestFDMatchesReference(t *testing.T) {
	sys := molecule.TestComplex(40, 80, 6)
	for _, cutoff := range []float64{0, 8} {
		wantV, wantC, wantPairs := refNB(sys, cutoff)
		for _, p := range []int{1, 2, 4, 6, 7} {
			res := runMethod(t, RunFD, sys, Options{Cutoff: cutoff}, p, 2)
			se := res.Steps[0]
			if !close2(se.EVdw, wantV) || !close2(se.ECoul, wantC) {
				t.Errorf("FD cutoff=%v p=%d: E = (%v, %v), want (%v, %v)",
					cutoff, p, se.EVdw, se.ECoul, wantV, wantC)
			}
			if se.ActivePairs != wantPairs {
				t.Errorf("FD cutoff=%v p=%d: pairs %d, want %d", cutoff, p, se.ActivePairs, wantPairs)
			}
		}
	}
}

func TestFDTilesBalanced(t *testing.T) {
	// With the checkerboard rule, the 2x2 grid's four tiles all carry
	// work (a plain triangle would leave one tile empty).
	sys := molecule.TestComplex(30, 50, 7)
	res := runMethod(t, RunFD, sys, Options{}, 4, 1)
	if res.Steps[0].PairChecks == 0 {
		t.Fatal("no checks recorded")
	}
	// Each of the 4 tiles holds ~1/4 of the checks; total is n(n-1)/2.
	want := sys.N * (sys.N - 1) / 2
	if res.Steps[0].PairChecks != want {
		t.Errorf("checks = %d, want %d", res.Steps[0].PairChecks, want)
	}
}

func TestSDGhostShrinksWithCutoff(t *testing.T) {
	sys := molecule.TestComplex(60, 120, 8)
	no := runMethod(t, RunSD, sys, Options{Cutoff: 0}, 4, 1)
	cut := runMethod(t, RunSD, sys, Options{Cutoff: 6}, 4, 1)
	if cut.CoordBytesOut >= no.CoordBytesOut {
		t.Errorf("SD with cut-off ships %d bytes, without %d; ghost margin should shrink it",
			cut.CoordBytesOut, no.CoordBytesOut)
	}
}

func TestCommVolumeHallmarks(t *testing.T) {
	sys := molecule.TestComplex(200, 400, 9)
	// FD beats RD for square-ish p > 4: volume n(pr+pc) vs n*p.
	rd, fd, _ := CommVolumePerStep(sys, 10, 9)
	if fd >= rd {
		t.Errorf("FD volume %d should beat RD %d at p=9", fd, rd)
	}
	// SD beats FD when the cut-off is small against the box.
	_, fd3, sd3 := CommVolumePerStep(sys, 4, 3)
	if sd3 >= fd3 {
		t.Errorf("SD volume %d should beat FD %d at p=3 with a tight cut-off", sd3, fd3)
	}
	// Measured volumes follow the same ordering.
	resRD := 2 * 2 * 9 * sys.N * 24 // RD ships 24n to 9 servers, 2 phases x 2 steps
	resFD := runMethod(t, RunFD, sys, Options{Cutoff: 10}, 9, 2)
	if resFD.CoordBytesOut >= resRD {
		t.Errorf("measured FD out-volume %d should beat RD %d", resFD.CoordBytesOut, resRD)
	}
	resSD := runMethod(t, RunSD, sys, Options{Cutoff: 4}, 3, 2)
	resFD3 := runMethod(t, RunFD, sys, Options{Cutoff: 4}, 3, 2)
	if resSD.CoordBytesOut >= resFD3.CoordBytesOut {
		t.Errorf("measured SD out-volume %d should beat FD %d at p=3",
			resSD.CoordBytesOut, resFD3.CoordBytesOut)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 7: {7, 1}, 9: {3, 3}, 12: {4, 3},
	}
	for p, want := range cases {
		pr, pc := gridShape(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("gridShape(%d) = (%d,%d), want %v", p, pr, pc, want)
		}
		if pr*pc != p {
			t.Errorf("gridShape(%d) does not partition", p)
		}
	}
}

func TestBlockBounds(t *testing.T) {
	// 10 items over 3 blocks: 4+3+3.
	bounds := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for b, want := range bounds {
		lo, hi := blockBounds(10, 3, b)
		if lo != want[0] || hi != want[1] {
			t.Errorf("block %d = [%d,%d), want %v", b, lo, hi, want)
		}
	}
	// Every item covered exactly once for various shapes.
	for _, n := range []int{1, 7, 100} {
		for k := 1; k <= 8; k++ {
			covered := make([]int, n)
			for b := 0; b < k; b++ {
				lo, hi := blockBounds(n, k, b)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d k=%d: item %d covered %d times", n, k, i, c)
				}
			}
		}
	}
}

func TestPartialUpdateReusesList(t *testing.T) {
	sys := molecule.TestComplex(30, 60, 10)
	res := runMethod(t, RunSD, sys, Options{Cutoff: 8, UpdateEvery: 3}, 2, 6)
	updates := 0
	for _, se := range res.Steps {
		if se.Updated {
			updates++
		}
	}
	if updates != 2 {
		t.Errorf("updates = %d, want 2 in 6 steps", updates)
	}
	// Energies identical across steps (static coordinates).
	for _, se := range res.Steps[1:] {
		if !close2(se.EVdw, res.Steps[0].EVdw) {
			t.Error("energy changed with static coordinates")
		}
	}
}

func TestValidation(t *testing.T) {
	sys := molecule.TestComplex(5, 5, 11)
	sim := pvm.NewSimVM(platform.J90(), nil)
	sim.SpawnRoot("c", func(task pvm.Task) {
		if _, err := RunSD(task, sys, Options{}, 0, 1); err == nil {
			panic("expected error for p=0")
		}
		if _, err := RunFD(task, sys, Options{}, 2, 0); err == nil {
			panic("expected error for steps=0")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSDRegionLocalUpdateScales(t *testing.T) {
	// The SD update phase checks only region-local pairs, so the total
	// check count falls with p — unlike RD/FD, whose updates always scan
	// the full triangle.
	sys := molecule.TestComplex(150, 300, 13)
	res4 := runMethod(t, RunSD, sys, Options{Cutoff: 6}, 4, 2)
	res1 := runMethod(t, RunSD, sys, Options{Cutoff: 6}, 1, 2)
	if res4.Steps[0].PairChecks >= res1.Steps[0].PairChecks {
		t.Errorf("SD p=4 checks %d should be below p=1 %d (region-local update)",
			res4.Steps[0].PairChecks, res1.Steps[0].PairChecks)
	}
	// On a fast network (the J90's 10 ms messages would mask it at this
	// size), the reduced work also wins wall-clock time.
	fast4 := runMethodOn(t, platform.T3E900(), RunSD, sys, Options{Cutoff: 6}, 4, 2)
	fast1 := runMethodOn(t, platform.T3E900(), RunSD, sys, Options{Cutoff: 6}, 1, 2)
	if fast4.StepSeconds() >= fast1.StepSeconds() {
		t.Errorf("SD p=4 time %v should beat p=1 %v on the T3E",
			fast4.StepSeconds(), fast1.StepSeconds())
	}
}
