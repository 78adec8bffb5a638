// Package core implements the paper's primary contribution: the analytic
// time-complexity model of Opal (Section 2.2, eqs. 2-10), its calibration
// against measured execution-time breakdowns by least squares (Section
// 2.5, Figure 4) and the performance prediction for alternative platforms
// from published key data (Section 4, Figures 5-6).
//
// The predicted execution time decomposes as
//
//	t_OPAL = t_tot_par_comp + t_tot_seq_comp + t_tot_comm + t_tot_sync
//
// with the parallel computation split into the list-update routine (a2 per
// checked pair) and the non-bonded energy-evaluation routine (a3 per
// active pair), the client's sequential work (a4 per mass center), the
// communication of eqs. 6-9 (rate a1, overhead b1) and the
// synchronization of eq. 10 (b5 per barrier).
package core

import (
	"opalperf/internal/hpm"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"

	"opalperf/internal/forcefield"
)

// App holds the application parameters of the model (Section 2.2).
type App struct {
	S     int     // simulation steps
	P     int     // servers
	U     float64 // update frequency (updates per step; 1 = full, 0.1 = partial)
	N     int     // mass centers
	Gamma float64 // water molecules / mass centers
	// NTilde is the average number of neighbours within the cut-off
	// radius; only meaningful when Cutoff is true.
	NTilde float64
	// Cutoff reports whether the cut-off is effective (10 A) or not
	// (60 A / none): it selects the branch of eq. 4.
	Cutoff bool
	// Alpha is the number of bytes for one atom's coordinates (3 x 8).
	Alpha float64
}

// AppFor derives the model's application parameters from a molecular
// system and run options.
func AppFor(sys *molecule.System, cutoff float64, updateEvery, p, s int) App {
	if updateEvery <= 0 {
		updateEvery = 1
	}
	return App{
		S: s, P: p, U: 1 / float64(updateEvery),
		N:      sys.N,
		Gamma:  sys.Gamma(),
		NTilde: sys.NTilde(cutoff),
		Cutoff: sys.CutoffEffective(cutoff),
		Alpha:  24,
	}
}

// Machine holds the platform parameters of the model.
type Machine struct {
	Name string
	A1   float64 // communication rate, bytes/second
	B1   float64 // per-message overhead, seconds
	A2   float64 // seconds per checked pair (update routine)
	A3   float64 // seconds per active pair (energy evaluation)
	A4   float64 // seconds per mass center (client sequential work)
	B5   float64 // seconds per barrier synchronization
}

// checksPerUpdate returns the number of pair distance checks of one list
// update: the full upper triangle.
func checksPerUpdate(n int) float64 {
	nf := float64(n)
	return nf * (nf - 1) / 2
}

// activePairs returns the number of active pairs per energy evaluation,
// the two branches of eq. 4: quadratic without an effective cut-off,
// n*ntilde/2 with one.
func activePairs(app App) float64 {
	nf := float64(app.N)
	if app.Cutoff {
		return nf * app.NTilde / 2
	}
	return nf * (nf - 1) / 2
}

// UpdateTime returns t_update: the list updates cost a2 per checked pair,
// run s*u times, divided over p servers (eq. 3 in its engine-exact form;
// see UpdateTimePaper for the verbatim published formula).
func (m Machine) UpdateTime(app App) float64 {
	return m.A2 * float64(app.S) * app.U * checksPerUpdate(app.N) / float64(app.P)
}

// UpdateTimePaper evaluates eq. 3 exactly as printed:
// a2 (s u / p) ((1-2g)^2 n^2 - (1-2g) n)/2.  For the paper's own water
// fractions (gamma > 1/2) the linear term adds; the quadratic coefficient
// (1-2g)^2 makes this formula a scaled-down variant of the full triangle.
func (m Machine) UpdateTimePaper(app App) float64 {
	g := 1 - 2*app.Gamma
	nf := float64(app.N)
	return m.A2 * float64(app.S) * app.U / float64(app.P) * (g*g*nf*nf - g*nf) / 2
}

// NBIntTime returns t_nbint, eq. 4: a3 per active pair over p servers.
func (m Machine) NBIntTime(app App) float64 {
	return m.A3 * float64(app.S) * activePairs(app) / float64(app.P)
}

// ParCompTime is eq. 2: update plus energy evaluation.
func (m Machine) ParCompTime(app App) float64 {
	return m.UpdateTime(app) + m.NBIntTime(app)
}

// SeqCompTime is eq. 5: a4 s n.
func (m Machine) SeqCompTime(app App) float64 {
	return m.A4 * float64(app.S) * float64(app.N)
}

// CommTime is the total communication time,
// s ( p alpha/a1 (u+2) n + 2 p b1 (u+1) ).
func (m Machine) CommTime(app App) float64 {
	s, p, u := float64(app.S), float64(app.P), app.U
	n := float64(app.N)
	return s * (p*app.Alpha/m.A1*(u+2)*n + 2*p*m.B1*(u+1))
}

// SyncTime is eq. 10: 2 s (u+1) b5.
func (m Machine) SyncTime(app App) float64 {
	return 2 * float64(app.S) * (app.U + 1) * m.B5
}

// Breakdown is the modelled decomposition of the execution time.
type Breakdown struct {
	Par, Seq, Comm, Sync float64
}

// Total returns the summed execution time.
func (b Breakdown) Total() float64 { return b.Par + b.Seq + b.Comm + b.Sync }

// TermNames lists the model's terms in the paper's chart order; the
// indices match Terms.
func TermNames() []string { return []string{"par", "seq", "comm", "sync"} }

// Terms returns the breakdown's values in TermNames order.
func (b Breakdown) Terms() []float64 { return []float64{b.Par, b.Seq, b.Comm, b.Sync} }

// Predict evaluates the full model.
func (m Machine) Predict(app App) Breakdown {
	return Breakdown{
		Par:  m.ParCompTime(app),
		Seq:  m.SeqCompTime(app),
		Comm: m.CommTime(app),
		Sync: m.SyncTime(app),
	}
}

// PredictCounts evaluates the model with the engine's exact distance-check
// and active-pair counts (summed over the window and all servers)
// substituted for the closed-form regressors of eqs. 3-4:
// Par = (a2*checks + a3*active)/p.  The remaining terms use the closed
// forms.  This is the per-window predictor of the model oracle, where the
// update schedule within a short window is uneven and the closed-form
// s*u approximation would alias it.
func (m Machine) PredictCounts(app App, checks, active float64) Breakdown {
	b := m.Predict(app)
	b.Par = (m.A2*checks + m.A3*active) / float64(app.P)
	return b
}

// Total is shorthand for Predict(app).Total().
func (m Machine) Total(app App) float64 { return m.Predict(app).Total() }

// Speedup returns T(1)/T(p) for p = 1..maxP with the other application
// parameters fixed.
func (m Machine) Speedup(app App, maxP int) []float64 {
	a1 := app
	a1.P = 1
	t1 := m.Total(a1)
	out := make([]float64, maxP)
	for p := 1; p <= maxP; p++ {
		ap := app
		ap.P = p
		out[p-1] = t1 / m.Total(ap)
	}
	return out
}

// MachineFor derives the model's platform parameters from a platform's
// key technical data, exactly the way Section 4.1 extracts them: the
// observed communication figures of Table 2 give a1 and b1, and the
// *single* kernel computation rate of Table 1 — the adjusted (canonical)
// MFlop/s of the dominating non-bonded loop — prices every unit of
// computation (a2, a3, a4) by its canonical flop count.  (Pricing each
// routine by its own op mix would credit the T3E's cheap add/mul updates;
// the paper's one-rate extraction does not, and its headline shapes —
// CoPs ahead of the T3E in absolute time — follow from that choice.  See
// EXPERIMENTS.md.)  gamma sets the charged/uncharged pair mix of a3.
func MachineFor(pl *platform.Platform, gamma float64) Machine {
	// Adjusted rate on the kernel mix: canonical flops per second while
	// running the non-bonded loop of charged pairs.
	adjRate := pl.RawRateMFlops * 1e6 *
		forcefield.PairEnergyOps.Canonical() / pl.Weights.Counted(forcefield.PairEnergyOps)
	secPerOps := func(o hpm.Ops) float64 { return o.Canonical() / adjRate }
	// Fraction of active pairs that are charged (solute-solute).
	fq := (1 - gamma) * (1 - gamma)
	a3 := fq*secPerOps(forcefield.PairEnergyOps) + (1-fq)*secPerOps(forcefield.PairEnergyLJOps)
	// Client per-mass-center work: the solute fraction carries roughly
	// one bond, one angle, one dihedral and a quarter improper per atom,
	// plus integration for every mass center.
	perAtomBonded := forcefield.BondOps.
		Plus(forcefield.AngleOps).
		Plus(forcefield.DihedralOps).
		Plus(forcefield.ImproperOps.Times(0.25))
	a4 := (1-gamma)*secPerOps(perAtomBonded) + secPerOps(forcefield.IntegrateOps)
	return Machine{
		Name: pl.Name,
		A1:   pl.CommMBs * 1e6,
		B1:   pl.LatencySec,
		A2:   secPerOps(forcefield.PairCheckOps),
		A3:   a3,
		A4:   a4,
		B5:   pl.SyncSec,
	}
}
