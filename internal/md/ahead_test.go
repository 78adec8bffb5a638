package md

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"opalperf/internal/archive"
	"opalperf/internal/fault"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// aheadSystem is large enough that its update and nbint handlers run
// ahead: their first calls take well over the run-ahead floor.
func aheadSystem(seed int64) *molecule.System {
	return molecule.Generate(molecule.Config{
		Name: "ahead", SoluteAtoms: 240, Waters: 500, Seed: seed, Interleave: true,
	})
}

// observables lists, bit for bit, everything a run-ahead must leave as
// running every handler in place leaves it, and the reactor servers as
// the blocking ones.
type observables struct {
	names []string
	bits  []uint64
}

func (o *observables) add(name string, v float64) {
	o.names = append(o.names, name)
	o.bits = append(o.bits, math.Float64bits(v))
}

// diff describes the first observable o and ref disagree on, or returns
// "" when they agree bit for bit.
func (o observables) diff(ref observables) string {
	if len(o.bits) != len(ref.bits) {
		return fmt.Sprintf("%d observables vs %d", len(o.bits), len(ref.bits))
	}
	for i := range ref.bits {
		if o.names[i] != ref.names[i] || o.bits[i] != ref.bits[i] {
			return fmt.Sprintf("%s = %v vs %s = %v", o.names[i], math.Float64frombits(o.bits[i]),
				ref.names[i], math.Float64frombits(ref.bits[i]))
		}
	}
	return ""
}

// observe runs one accounting-mode run on a simulated J90 at the given
// GOMAXPROCS — 1 leaves the session no helper, so every handler runs in
// place — and returns its observables and how many handlers ran ahead.
func observe(t *testing.T, procs int, sys *molecule.System, opts Options, faults *fault.Config, nservers, steps int) (observables, int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s := pvm.NewSimVM(platform.J90(), nil)
	s.Kernel.HoldWindow()
	matrix := new(telemetry.Matrix)
	s.SetScope(&telemetry.Scope{Matrix: matrix})
	var plan *fault.Plan
	if faults != nil {
		plan = fault.NewPlan(*faults)
		s.SetFaults(plan)
	}
	var res *Result
	var err error
	client := s.SpawnRoot("opal-client", func(task pvm.Task) {
		res, err = RunParallel(task, sys, opts, nservers, steps)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	var o observables
	o.add("makespan", s.Time())
	o.add("window start", res.StartSeconds)
	o.add("window end", res.EndSeconds)
	for _, p := range s.Kernel.Procs() {
		id := p.ID()
		st := p.Stats()
		for k, v := range st.Seg {
			o.add(fmt.Sprintf("proc %d Stats.Seg[%v]", id, vm.SegKind(k)), v)
		}
		o.add(fmt.Sprintf("proc %d flops", id), st.Flops)
		o.add(fmt.Sprintf("proc %d msgs sent", id), float64(st.MsgsSent))
		o.add(fmt.Sprintf("proc %d bytes sent", id), float64(st.BytesSent))
		o.add(fmt.Sprintf("proc %d msgs recv", id), float64(st.MsgsRecv))
		o.add(fmt.Sprintf("proc %d bytes recv", id), float64(st.BytesRecv))
		for k, v := range s.Kernel.WindowTotals(id)[0] {
			o.add(fmt.Sprintf("proc %d window[%v]", id, vm.SegKind(k)), v)
		}
		for _, name := range []string{"update", "nbint", "reduce", "seq"} {
			c := s.Task(id).Monitor().Counter(name)
			o.add(fmt.Sprintf("proc %d hpm %s counted", id, name), c.Counted)
			o.add(fmt.Sprintf("proc %d hpm %s canonical", id, name), c.Canonical)
			o.add(fmt.Sprintf("proc %d hpm %s seconds", id, name), c.Seconds)
		}
	}
	tot := s.Kernel.WindowTotals(append([]int{client}, res.ServerTIDs...)...)
	b := trace.BreakdownOf(tot[0], tot[1:], res.StepSeconds)
	for _, v := range []float64{b.Wall, b.ParComp, b.MaxParComp, b.MinParComp, b.SeqComp, b.Comm, b.Sync, b.Recovery, b.Idle} {
		o.add("breakdown term", v)
	}
	for _, l := range matrix.Snapshot().Links {
		cell := fmt.Sprintf("matrix %d→%d", l.Src, l.Dst)
		o.add(cell+" msgs", float64(l.Msgs))
		o.add(cell+" bytes", float64(l.Bytes))
		o.add(cell+" calls", float64(l.Calls))
		o.add(cell+" latency", l.LatSeconds)
	}
	if plan != nil {
		fs := plan.Stats()
		for _, v := range []int{fs.Drops, fs.Dups, fs.Delays, fs.Crashes, fs.Stragglers} {
			o.add("fault count", float64(v))
		}
	}
	var energies []float64
	for _, st := range res.Steps {
		energies = append(energies, st.ETotal)
	}
	o.add("energies hash "+archive.HashFloats(energies), 0)
	return o, s.AheadRuns()
}

// TestAheadBitIdenticalSweep is run-ahead's correctness property: over
// 40 seeds of {fine-grained, macro-replayed} × {inert, delay + straggler
// fault plan} accounting runs, a session whose handlers run ahead on a
// second core (GOMAXPROCS 2) reproduces the session that has no helper
// (GOMAXPROCS 1) in every Stats counter, window total, Breakdown term,
// hpm counter, fault count and energy, bit for bit — and the helper
// really ran handlers on both paths.
func TestAheadBitIdenticalSweep(t *testing.T) {
	ahead := map[LoDMode]int{}
	for seed := 0; seed < 40; seed++ {
		opts := Options{
			Cutoff:      10,
			UpdateEvery: 1 + seed%3,
			Seed:        int64(seed),
			Accounting:  true,
			Minimize:    seed%3 == 0,
			LoD:         LoDMode(seed % 2),
		}
		if !opts.Minimize {
			opts.InitTemperature = 300
		}
		var faults *fault.Config
		if seed/2%2 == 1 {
			faults = &fault.Config{Seed: uint64(seed), DelayRate: 0.05, StragglerRate: 0.05}
		}
		sys := aheadSystem(int64(seed%4 + 1))
		nservers, steps := 2+seed%3, 3+seed%2
		ref, _ := observe(t, 1, sys, opts, faults, nservers, steps)
		got, n := observe(t, 2, sys, opts, faults, nservers, steps)
		if faults == nil {
			ahead[opts.LoD] += n
		}
		if len(got.bits) != len(ref.bits) {
			t.Fatalf("seed %d: %d observables with run-ahead, %d without", seed, len(got.bits), len(ref.bits))
		}
		for i := range ref.bits {
			if got.names[i] != ref.names[i] || got.bits[i] != ref.bits[i] {
				t.Fatalf("seed %d (%v, faults %v): %s = %v with run-ahead, %s = %v without", seed, opts.LoD, faults != nil,
					got.names[i], math.Float64frombits(got.bits[i]), ref.names[i], math.Float64frombits(ref.bits[i]))
			}
		}
	}
	t.Logf("handlers run ahead: %d macro-replayed, %d fine-grained", ahead[LoDAuto], ahead[LoDOff])
	if ahead[LoDAuto] == 0 || ahead[LoDOff] == 0 {
		t.Fatalf("handlers run ahead: %d macro-replayed, %d fine-grained; the sweep must engage both", ahead[LoDAuto], ahead[LoDOff])
	}
}
