// Package decomp implements the two alternative parallelization methods
// the paper names alongside Opal's replicated-data (RD) scheme (Section
// 2.1): the geometric / spatial-decomposition (SD) method, in which each
// processor owns the mass centers inside its sub-domain, and Plimpton's
// force-decomposition (FD) method, in which the force matrix is
// partitioned in blocks among the processors.
//
// Both engines parallelize the non-bonded pair computation only (the
// bonded terms stay on the coordinator in every scheme) and run over the
// same PVM fabric as Opal, so their communication volumes and virtual
// execution times are directly comparable with the RD engine in
// internal/md — the decomposition-comparison ablation benchmark.
//
// The communication hallmarks reproduce the textbook trade-offs:
//
//   - RD ships all n coordinates to every server: volume ~ p*n per step;
//   - FD ships each server one row block and one column block: volume
//     ~ 2*n*sqrt(p) total, a sqrt(p) saving;
//   - SD ships each server only its slab plus a ghost margin of one
//     cut-off radius: volume ~ n + p*ghost, the best when the cut-off is
//     effective — and degenerates to full replication without one.
package decomp

import (
	"fmt"
	"math"

	"opalperf/internal/forcefield"
	"opalperf/internal/molecule"
	"opalperf/internal/pvm"
)

// Options configure a decomposition run.
type Options struct {
	// Cutoff is the pair cut-off radius in Angstrom (0 = none).
	Cutoff float64
	// UpdateEvery is the number of steps between pair-list rebuilds.
	UpdateEvery int
}

func (o Options) withDefaults() Options {
	if o.UpdateEvery <= 0 {
		o.UpdateEvery = 1
	}
	return o
}

// StepEnergy is the non-bonded outcome of one step.
type StepEnergy struct {
	EVdw, ECoul float64
	ActivePairs int
	PairChecks  int
	Updated     bool
}

// Result summarizes a decomposition run.
type Result struct {
	Method     string
	Steps      []StepEnergy
	ServerTIDs []int
	// StartSeconds/EndSeconds bound the simulation phase on the
	// coordinator's clock.
	StartSeconds, EndSeconds float64
	// CoordBytesOut/In count the coordinator's communication volume.
	CoordBytesOut, CoordBytesIn int
}

// StepSeconds returns the virtual duration of the simulation phase.
func (r *Result) StepSeconds() float64 { return r.EndSeconds - r.StartSeconds }

// Protocol tags for the SPMD engines.
const (
	tagInit = 100 + iota
	tagCoords
	tagResult
	tagStop
)

// nbTables are the replicated non-bonded tables a server evaluates its
// pairs from, as md's evaluation does, so energies agree.
type nbTables struct {
	types   []int
	charges []float64
	lj      *forcefield.LJTable
	excl    *forcefield.Exclusions
}

// chargeEval books the op cost of nq charged and nu uncharged pair
// evaluations.
func chargeEval(t pvm.Task, nq, nu int) {
	ops := forcefield.PairEnergyOps.Times(float64(nq)).
		Plus(forcefield.PairEnergyLJOps.Times(float64(nu)))
	t.Charge("nbint", ops)
}

// chargeChecks books the op cost of distance checks.
func chargeChecks(t pvm.Task, checks, excls int) {
	ops := forcefield.PairCheckOps.Times(float64(checks)).
		Plus(forcefield.ExclusionOps.Times(float64(excls)))
	t.Charge("update", ops)
}

// packInit serializes the replicated tables for the SPMD servers.
func packInit(sys *molecule.System, opts Options, extra ...int) *pvm.Buffer {
	types := make([]int64, sys.N)
	for i, v := range sys.Type {
		types[i] = int64(v)
	}
	b := pvm.NewBuffer().
		PackInt(sys.N).
		PackInt64s(types).
		PackFloat64s(sys.Charge).
		PackFloat64(opts.Cutoff).
		PackFloat64(sys.Box).
		PackInt64s(forcefield.BuildExclusions(sys).Keys())
	for _, e := range extra {
		b.PackInt(e)
	}
	return b
}

type initData struct {
	n      int
	tb     *nbTables
	cutoff float64
	box    float64
	extra  []int
}

func unpackInit(b *pvm.Buffer, nExtra int) initData {
	n := b.MustInt()
	types64, err := b.UnpackInt64s()
	if err != nil {
		panic(err)
	}
	types := make([]int, n)
	for i, v := range types64 {
		types[i] = int(v)
	}
	charges := b.MustFloat64s()
	cutoff := b.MustFloat64()
	box := b.MustFloat64()
	keys, err := b.UnpackInt64s()
	if err != nil {
		panic(err)
	}
	d := initData{
		n: n,
		tb: &nbTables{
			types:   types,
			charges: charges,
			lj:      forcefield.BuildLJ(forcefield.DefaultLJ()),
			excl:    forcefield.ExclusionsFromKeys(n, keys),
		},
		cutoff: cutoff,
		box:    box,
	}
	for i := 0; i < nExtra; i++ {
		d.extra = append(d.extra, b.MustInt())
	}
	return d
}

// gridShape factors p into the most square pr x pc grid (pr >= pc) for
// the force decomposition.
func gridShape(p int) (pr, pc int) {
	pc = int(math.Sqrt(float64(p)))
	for pc > 1 && p%pc != 0 {
		pc--
	}
	if pc < 1 {
		pc = 1
	}
	return p / pc, pc
}

// blockBounds splits n items into k near-equal contiguous blocks and
// returns the bounds of block b.
func blockBounds(n, k, b int) (lo, hi int) {
	base := n / k
	rem := n % k
	lo = b*base + min(b, rem)
	hi = lo + base
	if b < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// validate checks shared run arguments.
func validate(sys *molecule.System, p, steps int) error {
	if p <= 0 {
		return fmt.Errorf("decomp: need at least one server, have %d", p)
	}
	if steps <= 0 {
		return fmt.Errorf("decomp: steps must be positive, have %d", steps)
	}
	return sys.Validate()
}
