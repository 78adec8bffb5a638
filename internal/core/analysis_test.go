package core

import (
	"math"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func TestOptimalServersJ90Cutoff(t *testing.T) {
	// The paper: "no benefit in putting more than three processors at
	// work" for the J90 with an effective cut-off.
	m := MachineFor(platform.J90(), molecule.Antennapedia().Gamma())
	app := mediumApp(1, true, true)
	bestP, bestT := m.OptimalServers(app, 7)
	if bestP < 2 || bestP > 4 {
		t.Errorf("optimal servers = %d, want ~3", bestP)
	}
	if bestT <= 0 {
		t.Errorf("best time = %v", bestT)
	}
}

func TestOptimalServersComputeBound(t *testing.T) {
	// Compute-bound no-cut-off runs keep improving to 7 on a fast net.
	m := MachineFor(platform.T3E900(), 0.633)
	app := mediumApp(1, false, true)
	bestP, _ := m.OptimalServers(app, 7)
	if bestP != 7 {
		t.Errorf("optimal servers = %d, want 7", bestP)
	}
}

// TestEfficiencyBounds holds the parallel efficiency, speed-up(p)/p, to
// (0, 1] at p = 4 and to exactly 1 at p = 1.
func TestEfficiencyBounds(t *testing.T) {
	m := MachineFor(platform.FastCoPs(), 0.633)
	sp := m.Speedup(mediumApp(1, false, true), 4)
	if eff := sp[3] / 4; eff <= 0 || eff > 1.01 {
		t.Errorf("efficiency = %v", eff)
	}
	if math.Abs(sp[0]-1) > 1e-9 {
		t.Errorf("efficiency at p=1 = %v, want 1", sp[0])
	}
}

// TestBoundClassification compares the parallel-computation and
// communication terms: the J90 without a cut-off at p = 1 is compute
// bound, with one at p = 7 communication bound.
func TestBoundClassification(t *testing.T) {
	j90 := MachineFor(platform.J90(), 0.633)
	if b := j90.Predict(mediumApp(1, false, true)); b.Comm > b.Par {
		t.Errorf("no cut-off p=1 on J90: comm %g above par %g", b.Comm, b.Par)
	}
	if b := j90.Predict(mediumApp(7, true, true)); b.Comm <= b.Par {
		t.Errorf("cut-off p=7 on J90: comm %g not above par %g", b.Comm, b.Par)
	}
}

func TestUpdateNbintCrossover(t *testing.T) {
	m := MachineFor(platform.J90(), 0.633)
	app := mediumApp(1, true, true)
	nStar := m.UpdateNbintCrossover(app)
	if nStar <= 0 || math.IsInf(nStar, 0) {
		t.Fatalf("crossover n* = %v", nStar)
	}
	// Lowering the update frequency pushes the crossover out by exactly
	// 1/u (the paper's "reduction of the update frequency ... restores
	// the relation"): at the partial-update operating point it sits at
	// ~10x, beyond the paper's problem sizes.
	partial := mediumApp(1, true, false)
	nStarPartial := m.UpdateNbintCrossover(partial)
	if math.Abs(nStarPartial/nStar-10) > 1e-9 {
		t.Errorf("partial crossover %v, full %v: want 10x", nStarPartial, nStar)
	}
	if nStarPartial < float64(app.N) {
		t.Errorf("partial-update crossover %v should exceed the medium size %d", nStarPartial, app.N)
	}
	// No effective cut-off: both terms quadratic, no crossover.
	if !math.IsInf(m.UpdateNbintCrossover(mediumApp(1, false, true)), 1) {
		t.Error("no cut-off should give +Inf crossover")
	}
}

func TestElasticitiesIdentifyBottleneck(t *testing.T) {
	j90 := MachineFor(platform.J90(), 0.633)
	// Compute bound: a3 dominates with elasticity near +1.
	els := j90.Elasticities(mediumApp(1, false, true))
	if els[0].Param != "a3" || els[0].Value < 0.7 {
		t.Errorf("compute-bound top sensitivity = %+v", els[0])
	}
	// Communication bound at p=7 with cut-off: a1 (negative: faster
	// network, smaller time) or b1 dominate.
	els = j90.Elasticities(mediumApp(7, true, true))
	top := els[0].Param
	if top != "a1" && top != "b1" {
		t.Errorf("comm-bound top sensitivity = %+v", els[0])
	}
	// a1's elasticity is negative (raising the rate lowers the time).
	for _, e := range els {
		if e.Param == "a1" && e.Value >= 0 {
			t.Errorf("a1 elasticity = %v, want negative", e.Value)
		}
	}
	// Elasticities of the time-proportional params sum to ~1 with a1
	// counted by magnitude (T is homogeneous of degree 1 in the six
	// parameters when a1 enters as 1/a1).
	var sum float64
	for _, e := range els {
		if e.Param == "a1" {
			sum -= e.Value
		} else {
			sum += e.Value
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("elasticities sum = %v, want ~1", sum)
	}
}

func TestElasticitiesDegenerate(t *testing.T) {
	m := Machine{Name: "zero"}
	if els := m.Elasticities(App{S: 1, P: 1, N: 1, Alpha: 24, U: 1}); els != nil {
		// A1=0 means Total is invalid; accept nil or finite values.
		for _, e := range els {
			if math.IsNaN(e.Value) {
				t.Errorf("NaN elasticity %+v", e)
			}
		}
	}
}
