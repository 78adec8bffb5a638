package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/trace"
)

// simSpec is the input of one simulation; harness.Run is the front door
// cmd/opal, cmd/scenario and every opald job go through.
type simSpec = harness.RunSpec

// cycle is the number of distinct specs a sim-* workload rotates through:
// enough that no run is served from a warm branch predictor alone, few
// enough that every spec repeats many times and the determinism check
// bites.
const cycle = 8

// simStats is every simulated statistic of one run.  A change meant only
// to speed the simulator up must leave all of it bit-identical.
type simStats struct {
	EnergiesHash   string          `json:"energies_hash"`
	Wall           float64         `json:"wall"`
	Breakdown      trace.Breakdown `json:"breakdown"`
	MacroPhases    int             `json:"lod_macro_phases"`
	FallbackPhases int             `json:"lod_fallback_phases"`
}

func statsOf(out harness.RunOutcome) simStats {
	energies := make([]float64, len(out.Result.Steps))
	for i, st := range out.Result.Steps {
		energies[i] = st.ETotal
	}
	return simStats{
		EnergiesHash:   archive.HashFloats(energies),
		Wall:           out.Wall,
		Breakdown:      out.Breakdown,
		MacroPhases:    out.Result.LoDMacroPhases,
		FallbackPhases: out.Result.LoDFallbackPhases,
	}
}

// goldenFile pins the simulated statistics of every sim-* spec at the
// default seed.
type goldenFile struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string][]simStats `json:"workloads"`
}

const goldenSeed = 1

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func loadGolden(root string) (*goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return &g, nil
}

// simWorkload drives harness.Run in-process over a cycle of specs that
// differ only in their seeds.
type simWorkload struct {
	name   string
	root   string
	build  func() simSpec // base spec; generating its system is part of setup
	faults *fault.Config  // fault plane template, nil for fault-free

	specs []simSpec
	refs  []simStats
	have  []bool
	n     int // ops issued so far
}

// chaosSpec is BenchmarkScenarioThroughput's communication-bound spec: a
// tiny complex on a wide fleet with a pair-list refresh every step, so
// nearly all host time is the DES kernel, the fabric and the RPC phases.
func chaosSpec() simSpec {
	return simSpec{
		Platform: platform.J90(),
		Sys:      molecule.TestComplex(2, 4, 9),
		Opts: md.Options{
			Cutoff:          10,
			UpdateEvery:     1,
			Accounting:      true,
			InitTemperature: 300,
			LoD:             md.LoDAuto,
		},
		Servers: 8,
		Steps:   400,
	}
}

// physicsSpec is the Figure 1 panel at a quarter of the medium complex:
// the pair kernels dominate and the middleware is nearly idle.
func physicsSpec() simSpec {
	return simSpec{
		Platform: platform.J90(),
		Sys: molecule.Generate(molecule.Config{
			Name: "medium (bench)", SoluteAtoms: 390, Waters: 680, Seed: 42, Interleave: true,
		}),
		Opts: md.Options{
			Cutoff:      harness.EffectiveCutoff,
			UpdateEvery: 1,
			Accounting:  true,
			Minimize:    true,
			LoD:         md.LoDOff,
		},
		Servers: 4,
		Steps:   10,
	}
}

func simWorkloads(root string) map[string]*simWorkload {
	return map[string]*simWorkload{
		"sim-chaos": {name: "sim-chaos", root: root, build: chaosSpec,
			faults: &fault.Config{DelayRate: 0.02, StragglerRate: 0.01}},
		"sim-faultfree": {name: "sim-faultfree", root: root, build: chaosSpec},
		"sim-physics":   {name: "sim-physics", root: root, build: physicsSpec},
	}
}

// deriveSpecs expands a base spec into the cycle.  Only the seeds come
// from the workload seed; sim-chaos and sim-faultfree derive identical
// option seeds, so they differ in the fault plane alone.
func deriveSpecs(base simSpec, faults *fault.Config, seed int64) []simSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]simSpec, cycle)
	for k := range specs {
		s := base
		s.Opts.Seed = rng.Int63n(1 << 31)
		fseed := rng.Uint64()
		if faults != nil {
			f := *faults
			f.Seed = fseed
			s.Faults = &f
		}
		specs[k] = s
	}
	return specs
}

func (w *simWorkload) setup(seed int64) error {
	w.specs = deriveSpecs(w.build(), w.faults, seed)
	w.refs = make([]simStats, cycle)
	w.have = make([]bool, cycle)
	w.n = 0
	if seed == goldenSeed {
		g, err := loadGolden(w.root)
		if err != nil {
			return err
		}
		refs := g.Workloads[w.name]
		if g.Seed != goldenSeed || len(refs) != cycle {
			return fmt.Errorf("%s: no golden for %s at seed %d; run -update-golden", goldenPath(w.root), w.name, seed)
		}
		copy(w.refs, refs)
		for k := range w.have {
			w.have[k] = true
		}
	}
	// Warm-up: one unchecked pass over the cycle fills the heap and the
	// runtime's goroutine pool.
	for k := range w.specs {
		if _, err := harness.Run(w.specs[k]); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) op(tr *tracer) error {
	i := w.n
	w.n++
	k := i % cycle
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	id := tr.begin("harness.Run", i, root)
	out, err := harness.Run(w.specs[k])
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("check", i, root)
	defer tr.end(id)
	return w.check(k, statsOf(out))
}

// check holds spec k to its reference: the golden at the default seed,
// the first occurrence otherwise.
func (w *simWorkload) check(k int, got simStats) error {
	if !w.have[k] {
		w.refs[k], w.have[k] = got, true
		return nil
	}
	if got != w.refs[k] {
		return fmt.Errorf("%s spec %d: simulated statistics drifted:\n  got  %+v\n  want %+v", w.name, k, got, w.refs[k])
	}
	return nil
}

func (w *simWorkload) pid() int            { return 0 }
func (w *simWorkload) beginTrace() error   { return nil }
func (w *simWorkload) teardown() error     { return nil }
func (w *simWorkload) ladderSpec() simSpec { return w.specs[0] }

// leanRun is the op without its front door: the same simulation on a
// session with no trace recorder, no reduction and no run bookkeeping —
// BenchmarkScenarioThroughput's path.  What harness.Run costs beyond it
// is the front-door tax.
func leanRun(spec simSpec) (*md.Result, *pvm.SimVM, error) {
	sim := pvm.NewSimVM(spec.Platform, nil)
	if spec.Faults != nil {
		sim.SetFaults(fault.NewPlan(*spec.Faults))
	}
	var res *md.Result
	var err error
	sim.SpawnRoot("opal-client", func(t pvm.Task) {
		res, err = md.RunParallel(t, spec.Sys, spec.Opts, spec.Servers, spec.Steps)
	})
	if e := sim.Run(); e != nil {
		return nil, nil, e
	}
	return res, sim, err
}

// simCounts adds the exact per-op counts of a cycle of specs: what one op
// asks of each layer, averaged over the cycle so the value does not
// depend on where the window happened to stop.
func simCounts(specs []simSpec, out map[string]float64) error {
	var msgs, bytes, macro, fallback, phases, pairs, checks, segs float64
	for _, spec := range specs {
		res, sim, err := leanRun(spec)
		if err != nil {
			return err
		}
		for _, p := range sim.Kernel.Procs() {
			st := p.Stats()
			msgs += float64(st.MsgsSent)
			bytes += float64(st.BytesSent)
		}
		macro += float64(res.LoDMacroPhases)
		fallback += float64(res.LoDFallbackPhases)
		// Every step of the parallel engine is one packed phase (nbint)
		// plus one more (update) whenever the pair list refreshes.
		every := max(spec.Opts.UpdateEvery, 1)
		phases += float64(spec.Steps + (spec.Steps+every-1)/every)
		for _, st := range res.Steps {
			pairs += float64(st.ActivePairs)
			checks += float64(st.PairChecks)
		}
		full, err := harness.Run(spec)
		if err != nil {
			return err
		}
		segs += float64(len(full.Recorder.Segments()))
	}
	n := float64(len(specs))
	out["pvm.msgs_per_op"] = msgs / n
	out["pvm.bytes_per_op"] = bytes / n
	out["sciddle.macro_phases_per_op"] = macro / n
	out["sciddle.fallback_phases_per_op"] = fallback / n
	if phases > 0 {
		out["sciddle.macro_share"] = macro / phases
	}
	out["forcefield.pairs_per_op"] = pairs / n
	out["pairlist.checks_per_op"] = checks / n
	out["trace.segments_per_op"] = segs / n
	return nil
}

// frontDoor times harness.Run against leanRun in alternation over the
// cycle for about budget, and reports the difference of the medians.
func frontDoor(specs []simSpec, budget time.Duration, out map[string]float64) error {
	var full, lean []float64
	t0 := time.Now()
	for i := 0; time.Since(t0) < budget || i < 2*len(specs); i++ {
		spec := specs[i%len(specs)]
		a := time.Now()
		if _, err := harness.Run(spec); err != nil {
			return err
		}
		b := time.Now()
		if _, _, err := leanRun(spec); err != nil {
			return err
		}
		c := time.Now()
		full = append(full, float64(b.Sub(a))/1e6)
		lean = append(lean, float64(c.Sub(b))/1e6)
	}
	door := median(full) - median(lean)
	out["harness.frontdoor_ms"] = door
	out["harness.frontdoor_share"] = door / median(full)
	return nil
}

// simLayers adds what a cycle of simulation specs tells about the layers
// under harness.Run: the exact counts and the front-door tax.
func simLayers(specs []simSpec, budget time.Duration, out map[string]float64) error {
	if err := simCounts(specs, out); err != nil {
		return err
	}
	return frontDoor(specs, budget, out)
}

func (w *simWorkload) layers(win *window, tr *tracer, budget time.Duration, out map[string]float64) error {
	if err := simLayers(w.specs, budget, out); err != nil {
		return err
	}
	out["md.host_us_per_step"] = median(win.latenciesMS()) * 1e3 / float64(w.specs[0].Steps)
	return nil
}
