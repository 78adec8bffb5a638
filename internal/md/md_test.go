package md

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"opalperf/internal/md/opalrpc"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
	"opalperf/internal/sciddle/idl"
	"opalperf/internal/trace"
)

// runSerialSim runs the serial engine on a simulated J90 and returns the
// result plus the virtual wall time.
func runSerialSim(t *testing.T, sys *molecule.System, opts Options, steps int) (*Result, float64) {
	t.Helper()
	s := pvm.NewSimVM(platform.J90(), nil)
	var res *Result
	var err error
	s.SpawnRoot("opal", func(task pvm.Task) {
		res, err = RunSerial(task, sys, opts, steps)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, s.Kernel.MaxTime()
}

// runSerialSimErr is runSerialSim for runs expected to error out.
func runSerialSimErr(sys *molecule.System, opts Options, steps int) (*Result, error) {
	s := pvm.NewSimVM(platform.J90(), nil)
	var res *Result
	var err error
	s.SpawnRoot("opal", func(task pvm.Task) {
		res, err = RunSerial(task, sys, opts, steps)
	})
	if e := s.Run(); e != nil {
		return nil, e
	}
	return res, err
}

// runParallelSim runs the parallel engine on a simulated platform.
func runParallelSim(t *testing.T, pl *platform.Platform, sys *molecule.System,
	opts Options, nservers, steps int) (*Result, *trace.Recorder, float64) {
	t.Helper()
	rec := trace.NewRecorder()
	s := pvm.NewSimVM(pl, rec)
	var res *Result
	var err error
	s.SpawnRoot("opal-client", func(task pvm.Task) {
		res, err = RunParallel(task, sys, opts, nservers, steps)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, rec, s.Kernel.MaxTime()
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}

func TestSerialEnergiesFinite(t *testing.T) {
	sys := molecule.TestComplex(20, 40, 1)
	res, wall := runSerialSim(t, sys, Options{Minimize: true}, 3)
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	for i, st := range res.Steps {
		if math.IsNaN(st.ETotal) || math.IsInf(st.ETotal, 0) {
			t.Fatalf("step %d energy = %v", i, st.ETotal)
		}
		if st.Volume <= 0 {
			t.Fatalf("step %d volume = %v", i, st.Volume)
		}
	}
	if wall <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestMinimizationDecreasesEnergy(t *testing.T) {
	sys := molecule.TestComplex(15, 30, 2)
	res, _ := runSerialSim(t, sys, Options{Minimize: true, StepSize: 0.01}, 12)
	first := res.Steps[0].ETotal
	last := res.Steps[len(res.Steps)-1].ETotal
	if !(last < first) {
		t.Errorf("energy did not decrease: %v -> %v", first, last)
	}
}

func TestSerialVsParallelEnergies(t *testing.T) {
	sys := molecule.TestComplex(12, 24, 3)
	opts := Options{Minimize: true, Cutoff: 0, UpdateEvery: 1}
	ser, _ := runSerialSim(t, sys, opts, 4)
	for _, p := range []int{1, 2, 3, 5} {
		par, _, _ := runParallelSim(t, platform.J90(), sys, opts, p, 4)
		for i := range ser.Steps {
			if d := relDiff(ser.Steps[i].ETotal, par.Steps[i].ETotal); d > 1e-9 {
				t.Errorf("p=%d step %d: serial %v vs parallel %v",
					p, i, ser.Steps[i].ETotal, par.Steps[i].ETotal)
			}
		}
		// Final positions agree too.
		for i := range ser.FinalPos {
			if d := relDiff(ser.FinalPos[i], par.FinalPos[i]); d > 1e-9 {
				t.Fatalf("p=%d: positions diverge at %d", p, i)
			}
		}
	}
}

func TestParallelWithCutoffMatchesSerial(t *testing.T) {
	sys := molecule.TestComplex(15, 45, 4)
	opts := Options{Minimize: true, Cutoff: 8, UpdateEvery: 2}
	ser, _ := runSerialSim(t, sys, opts, 4)
	par, _, _ := runParallelSim(t, platform.J90(), sys, opts, 3, 4)
	for i := range ser.Steps {
		if d := relDiff(ser.Steps[i].ETotal, par.Steps[i].ETotal); d > 1e-9 {
			t.Errorf("step %d: %v vs %v", i, ser.Steps[i].ETotal, par.Steps[i].ETotal)
		}
		if ser.Steps[i].ActivePairs != par.Steps[i].ActivePairs {
			t.Errorf("step %d: active pairs %d vs %d", i,
				ser.Steps[i].ActivePairs, par.Steps[i].ActivePairs)
		}
	}
}

func TestDynamicsConservesEnergyRoughly(t *testing.T) {
	// Leapfrog on a pre-relaxed system: the total (potential + kinetic)
	// energy drift shrinks as dt shrinks, and is small for a small dt.
	sys := molecule.TestComplex(10, 20, 5)
	pre, _ := runSerialSim(t, sys, Options{Minimize: true, StepSize: 0.005}, 200)
	relaxed := sys.Clone()
	copy(relaxed.Pos, pre.FinalPos)
	drift := func(dt float64) float64 {
		res, _ := runSerialSim(t, relaxed, Options{Dt: dt}, 20)
		e0 := res.Steps[0].ETotal + res.Steps[0].Kinetic
		e1 := res.Steps[len(res.Steps)-1].ETotal + res.Steps[len(res.Steps)-1].Kinetic
		return math.Abs(e1 - e0)
	}
	dBig, dSmall := drift(1e-4), drift(2.5e-5)
	if dSmall > dBig {
		t.Errorf("drift did not shrink with dt: %v (dt=1e-4) vs %v (dt=2.5e-5)", dBig, dSmall)
	}
}

func TestUpdateEveryReducesChecks(t *testing.T) {
	sys := molecule.TestComplex(10, 20, 6)
	full, _ := runSerialSim(t, sys, Options{Minimize: true, UpdateEvery: 1}, 10)
	partial, _ := runSerialSim(t, sys, Options{Minimize: true, UpdateEvery: 10}, 10)
	fc, pc := 0, 0
	for i := range full.Steps {
		fc += full.Steps[i].PairChecks
		pc += partial.Steps[i].PairChecks
	}
	if fc != 10*pc {
		t.Errorf("checks: full %d, partial %d (want 10x)", fc, pc)
	}
	nup := 0
	for _, st := range partial.Steps {
		if st.Updated {
			nup++
		}
	}
	if nup != 1 {
		t.Errorf("partial update ran %d updates in 10 steps", nup)
	}
}

func TestCutoffReducesWork(t *testing.T) {
	sys := molecule.TestComplex(30, 90, 7)
	no, _ := runSerialSim(t, sys, Options{Minimize: true}, 2)
	cut, _ := runSerialSim(t, sys, Options{Minimize: true, Cutoff: 8}, 2)
	if cut.Steps[0].ActivePairs*2 >= no.Steps[0].ActivePairs {
		t.Errorf("cut-off pairs %d vs all %d: no drastic reduction",
			cut.Steps[0].ActivePairs, no.Steps[0].ActivePairs)
	}
}

func TestParallelSpeedsUpVirtualTime(t *testing.T) {
	sys := molecule.TestComplex(40, 80, 8)
	opts := Options{Minimize: true, Cutoff: 0}
	var prev float64
	for i, p := range []int{1, 3} {
		_, rec, wall := runParallelSim(t, platform.T3E900(), sys, opts, p, 3)
		b := trace.ComputeBreakdown(rec, 0, nil, wall)
		_ = b
		if i > 0 && wall >= prev {
			t.Errorf("p=3 wall %v not faster than p=1 wall %v", wall, prev)
		}
		prev = wall
	}
}

func TestBreakdownComponentsPresent(t *testing.T) {
	sys := molecule.TestComplex(30, 60, 9)
	opts := Options{Minimize: true, Accounting: true}
	rec := trace.NewRecorder()
	s := pvm.NewSimVM(platform.J90(), rec)
	var res *Result
	s.SpawnRoot("client", func(task pvm.Task) {
		var err error
		res, err = RunParallel(task, sys, opts, 3, 5)
		if err != nil {
			panic(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wall := res.StepSeconds
	b := trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, wall)
	if b.ParComp <= 0 {
		t.Error("no parallel computation recorded")
	}
	if b.SeqComp <= 0 {
		t.Error("no sequential computation recorded")
	}
	if b.Comm <= 0 {
		t.Error("no communication recorded")
	}
	if b.Sync <= 0 {
		t.Error("no synchronization recorded (accounting mode)")
	}
	// On the J90 with its 10ms PVM messages, communication is a visible
	// fraction for a small problem.
	if b.Comm < 0.01*wall {
		t.Errorf("comm %.4f suspiciously small vs wall %.4f", b.Comm, wall)
	}
}

// TestEvenServerImbalance reproduces the paper's anomaly end to end: with
// the LCG distribution and interleaved storage, even server counts show
// clearly more idle time (load imbalance) than neighbouring odd counts.
func TestEvenServerImbalance(t *testing.T) {
	sys := molecule.TestComplex(600, 1000, 10)
	opts := Options{Minimize: true, Accounting: true, Strategy: pairlist.LCG}
	imbalance := map[int]float64{}
	for _, p := range []int{2, 3, 4, 5} {
		o := opts
		rec := trace.NewRecorder()
		s := pvm.NewSimVM(platform.J90(), rec)
		var res *Result
		s.SpawnRoot("client", func(task pvm.Task) {
			var err error
			res, err = RunParallel(task, sys, o, p, 4)
			if err != nil {
				panic(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		b := trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, res.StepSeconds)
		imbalance[p] = b.Imbalance()
	}
	t.Logf("imbalance by servers: %v", imbalance)
	if !(imbalance[2] > 2*imbalance[3]) {
		t.Errorf("p=2 imbalance %.3f not clearly above p=3 %.3f", imbalance[2], imbalance[3])
	}
	if !(imbalance[4] > 2*imbalance[5]) {
		t.Errorf("p=4 imbalance %.3f not clearly above p=5 %.3f", imbalance[4], imbalance[5])
	}
	if imbalance[2] < 0.04 {
		t.Errorf("p=2 imbalance %.3f too small to be the paper's anomaly", imbalance[2])
	}
}

func TestFoldedStrategyBalances(t *testing.T) {
	sys := molecule.TestComplex(150, 250, 10)
	get := func(strat pairlist.Strategy) float64 {
		rec := trace.NewRecorder()
		s := pvm.NewSimVM(platform.J90(), rec)
		var res *Result
		s.SpawnRoot("client", func(task pvm.Task) {
			o := Options{Minimize: true, Accounting: true, Strategy: strat}
			var err error
			res, err = RunParallel(task, sys, o, 2, 4)
			if err != nil {
				panic(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace.ComputeBreakdownBetween(rec, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, res.StepSeconds).Imbalance()
	}
	lcg := get(pairlist.LCG)
	folded := get(pairlist.Folded)
	if !(folded < lcg/2) {
		t.Errorf("folded imbalance %.3f should be well below LCG %.3f at p=2", folded, lcg)
	}
}

func TestLocalFabricParallelRun(t *testing.T) {
	// The same engine runs on real goroutines — one network session, so
	// every message is delivered locally — and its energies match the
	// simulated run exactly (identical arithmetic, different fabric).
	sys := molecule.TestComplex(10, 20, 11)
	opts := Options{Minimize: true}
	simRes, _, _ := runParallelSim(t, platform.J90(), sys, opts, 2, 3)
	daemon, err := pvm.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	l, err := pvm.ConnectTCP(daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var locRes *Result
	l.SpawnRoot("client", func(task pvm.Task) {
		locRes, err = RunParallel(task, sys, opts, 2, 3)
	})
	l.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range simRes.Steps {
		if simRes.Steps[i].ETotal != locRes.Steps[i].ETotal {
			t.Errorf("step %d: sim %v vs local %v", i,
				simRes.Steps[i].ETotal, locRes.Steps[i].ETotal)
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := molecule.TestComplex(5, 5, 12)
	s := pvm.NewSimVM(platform.J90(), nil)
	s.SpawnRoot("c", func(task pvm.Task) {
		if _, err := RunSerial(task, sys, Options{}, 0); err == nil {
			panic("expected error for zero steps")
		}
		if _, err := RunParallel(task, sys, Options{}, 0, 1); err == nil {
			panic("expected error for zero servers")
		}
		bad := sys.Clone()
		bad.Pos = bad.Pos[:3]
		if _, err := RunSerial(task, bad, Options{}, 1); err == nil {
			panic("expected error for invalid system")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceModel(t *testing.T) {
	sys := molecule.LFB()
	entries := SpaceModel(sys, 0, 1)
	byName := map[string]int64{}
	for _, e := range entries {
		byName[e.Name] = e.Bytes
	}
	// Paper, Section 2.6 (large example, 6290 mass centers): pair list
	// ~160 MB without cut-off.
	pl := byName["pair list"]
	if pl < 100e6 || pl > 200e6 {
		t.Errorf("pair list = %d bytes, want ~160 MB", pl)
	}
	// Coordinates and gradients are 3*8*n.
	if byName["atom coordinates"] != int64(24*sys.N) {
		t.Errorf("coordinates = %d", byName["atom coordinates"])
	}
	if byName["energy values"] != 16 {
		t.Errorf("energy values = %d", byName["energy values"])
	}
	// The list scales down with servers; the replicated data does not.
	e4 := SpaceModel(sys, 0, 4)
	if e4[0].Bytes*4 != entries[0].Bytes {
		t.Errorf("pair list does not scale with p: %d vs %d", e4[0].Bytes, entries[0].Bytes)
	}
	if e4[1].Bytes != entries[1].Bytes {
		t.Error("replicated coordinates should not scale with p")
	}
	// Cut-off shrinks the list drastically.
	cut := SpaceModel(sys, 10, 1)
	if cut[0].Bytes*5 > pl {
		t.Errorf("cut-off list %d not drastically below %d", cut[0].Bytes, pl)
	}
}

// TestWorkingSetBytes sums one server's space model, its share of the
// pair list plus the replicated data: it must shrink with more servers.
func TestWorkingSetBytes(t *testing.T) {
	sys := molecule.SmallComplex()
	workingSet := func(p int) (total int64) {
		for _, e := range SpaceModel(sys, 0, p) {
			total += e.Bytes
		}
		return total
	}
	ws1, ws4 := workingSet(1), workingSet(4)
	if ws4 >= ws1 {
		t.Errorf("working set should shrink with servers: %d vs %d", ws4, ws1)
	}
}

// TestStubsInSync regenerates the Opal stubs from opal.idl, as `make
// stubs` does, and compares them with the checked-in file.
func TestStubsInSync(t *testing.T) {
	src, err := os.ReadFile("opal.idl")
	if err != nil {
		t.Fatal(err)
	}
	f, err := idl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := idl.Generate(f, "opalrpc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("opalrpc/opalrpc.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("opalrpc/opalrpc.go is out of date; regenerate with cmd/sciddlegen")
	}
}

func TestAccountingVsOverlappedSameEnergies(t *testing.T) {
	sys := molecule.TestComplex(12, 18, 13)
	over, _, overWall := runParallelSim(t, platform.FastCoPs(), sys,
		Options{Minimize: true}, 3, 3)
	acct, _, acctWall := runParallelSim(t, platform.FastCoPs(), sys,
		Options{Minimize: true, Accounting: true}, 3, 3)
	for i := range over.Steps {
		if over.Steps[i].ETotal != acct.Steps[i].ETotal {
			t.Errorf("step %d energies differ between modes", i)
		}
	}
	if acctWall < overWall {
		t.Errorf("accounting wall %v below overlapped %v", acctWall, overWall)
	}
}

// TestPhysicsPlatformIndependent: the virtual platform changes only the
// clock, never the arithmetic — energies are bit-identical across
// machines (the simulator analogue of the paper's observation that all
// platforms computed "precisely identical" results while counting
// different flops).
func TestPhysicsPlatformIndependent(t *testing.T) {
	sys := molecule.TestComplex(20, 40, 55)
	opts := Options{Minimize: true, Cutoff: 8}
	var ref *Result
	for _, pl := range []*platform.Platform{
		platform.J90(), platform.T3E900(), platform.FastCoPs(), platform.SX4(),
	} {
		res, _, wall := runParallelSim(t, pl, sys, opts, 3, 3)
		if wall <= 0 {
			t.Fatalf("%s: no virtual time", pl.Name)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.Steps {
			if res.Steps[i].ETotal != ref.Steps[i].ETotal {
				t.Fatalf("%s step %d: %v != %v", pl.Name, i,
					res.Steps[i].ETotal, ref.Steps[i].ETotal)
			}
		}
	}
}

// TestVirtualTimesDifferAcrossPlatforms: and the clocks DO differ.
func TestVirtualTimesDifferAcrossPlatforms(t *testing.T) {
	sys := molecule.TestComplex(30, 60, 56)
	opts := Options{Minimize: true}
	_, _, j90 := runParallelSim(t, platform.J90(), sys, opts, 2, 2)
	_, _, fast := runParallelSim(t, platform.FastCoPs(), sys, opts, 2, 2)
	if j90 == fast {
		t.Fatal("different platforms produced identical virtual times")
	}
	if fast >= j90 {
		t.Errorf("fast CoPs %v should beat the J90 %v on this small run", fast, j90)
	}
}

// TestInitPayloadDeterministic packs the Init request of one system twice
// from scratch.  The exclusion block used to be read out of a map, so its
// order — and with it the bytes on the wire — changed from run to run.
func TestInitPayloadDeterministic(t *testing.T) {
	sys := molecule.TestComplex(30, 20, 5)
	pack := func() []byte {
		d := newNBData(sys, 10)
		if d.excl.Len() < 20 {
			t.Fatalf("only %d exclusions, test is vacuous", d.excl.Len())
		}
		ids := make([]int64, sys.N)
		b := pvm.NewBuffer()
		opalrpc.PackOpalInitArgsInto(b, sys.N, sys.NSolute, ids, ids, sys.Charge,
			d.lj.C12, d.lj.C6, d.excl.Keys(), d.cutoff, sys.Box, 0, 0, 1, 0, 2)
		wire, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if first, second := pack(), pack(); !bytes.Equal(first, second) {
		t.Fatal("two Init requests for one system differ on the wire")
	}
}

// TestInitRejectsMalformedExclusionKey sends the server an Init request
// whose exclusion block names a pair that cannot exist.  Like malformed LJ
// tables it must stop the handler with a panic that names the fault (which
// opald's worker isolation turns into a failed job), not build a table
// that answers wrongly or divide by a zero center count.
func TestInitRejectsMalformedExclusionKey(t *testing.T) {
	sys := molecule.TestComplex(4, 3, 5)
	d := newNBData(sys, 10)
	ids := make([]int64, sys.N)
	dispatch := sciddle.DirectDispatcher(newOpalService())
	for _, tc := range []struct {
		n   int
		key int64
	}{{sys.N, int64(2*sys.N + 2)}, {sys.N, int64(sys.N * sys.N)}, {0, 1}} {
		req := pvm.NewBuffer()
		req.PackInt(0)
		req.PackString("init")
		opalrpc.PackOpalInitArgsInto(req, tc.n, sys.NSolute, ids, ids, sys.Charge,
			d.lj.C12, d.lj.C6, []int64{tc.key}, d.cutoff, sys.Box, 0, 0, 1, 0, 2)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "malformed exclusion key") {
					t.Errorf("n=%d key=%d: recovered %q, want the malformed-key panic", tc.n, tc.key, msg)
				}
			}()
			dispatch(nil, req)
		}()
	}
}
