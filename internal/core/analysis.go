package core

import (
	"math"
	"sort"
)

// Analysis helpers over the calibrated model: where parallelization stops
// paying (Section 4.2's "no benefit in putting more than three processors
// at work"), which platform parameter dominates a configuration, and the
// update-versus-energy crossover of Section 2.2.

// OptimalServers returns the server count in 1..maxP with the smallest
// predicted total time, and that time.  For communication-bound
// configurations on slow networks this is the break-down point of the
// speed-up curves (Charts 5d/6d).
func (m Machine) OptimalServers(app App, maxP int) (bestP int, bestT float64) {
	bestP, bestT = 1, math.Inf(1)
	for p := 1; p <= maxP; p++ {
		a := app
		a.P = p
		if t := m.Total(a); t < bestT {
			bestP, bestT = p, t
		}
	}
	return bestP, bestT
}

// UpdateNbintCrossover returns the problem size n* at which the update
// routine's time equals the energy-evaluation time for the given update
// frequency and cut-off neighbourhood (Section 2.2 discusses this
// crossover and finds it beyond all practical problem sizes).  With an
// effective cut-off, t_update = a2 u n^2/2 and t_nbint = a3 n ntilde / 2,
// so n* = (a3/a2) * ntilde / u.  Returns +Inf when the cut-off is not
// effective (both terms quadratic: no crossover in n).
func (m Machine) UpdateNbintCrossover(app App) float64 {
	if !app.Cutoff {
		return math.Inf(1)
	}
	if m.A2 <= 0 || app.U <= 0 {
		return math.Inf(1)
	}
	return m.A3 / m.A2 * app.NTilde / app.U
}

// Elasticity is the relative sensitivity of the predicted total time to
// one platform parameter: d ln T / d ln theta, estimated by a central
// difference.  Elasticities over all parameters sum to ~1 for this
// model's multiplicative terms and show which resource bounds the run.
type Elasticity struct {
	Param string
	Value float64
}

// Elasticities returns the sensitivities to the six platform parameters,
// sorted by magnitude.
func (m Machine) Elasticities(app App) []Elasticity {
	base := m.Total(app)
	if base <= 0 || math.IsInf(base, 0) || math.IsNaN(base) {
		return nil
	}
	const h = 1e-4
	perturb := func(f func(*Machine, float64)) float64 {
		up, down := m, m
		f(&up, 1+h)
		f(&down, 1-h)
		return (math.Log(up.Total(app)) - math.Log(down.Total(app))) / (2 * h)
	}
	out := []Elasticity{
		{"a1", perturb(func(x *Machine, s float64) { x.A1 *= s })},
		{"b1", perturb(func(x *Machine, s float64) { x.B1 *= s })},
		{"a2", perturb(func(x *Machine, s float64) { x.A2 *= s })},
		{"a3", perturb(func(x *Machine, s float64) { x.A3 *= s })},
		{"a4", perturb(func(x *Machine, s float64) { x.A4 *= s })},
		{"b5", perturb(func(x *Machine, s float64) { x.B5 *= s })},
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].Value) > math.Abs(out[j].Value)
	})
	return out
}
