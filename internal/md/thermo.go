package md

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"opalperf/internal/molecule"
)

// Thermodynamic extensions of the engine: Maxwell-Boltzmann velocity
// initialization, a Berendsen weak-coupling thermostat and XYZ trajectory
// output — the production features an energy-refinement code grows once
// it is used for dynamics rather than pure minimization.

// initVelocities draws Maxwell-Boltzmann velocities at temperature T (K)
// and removes the net momentum so the complex does not drift.
func initVelocities(sys *molecule.System, vel []float64, temperature float64, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var px, py, pz, mTot float64
	for i := 0; i < sys.N; i++ {
		m := sys.Mass[i]
		// sigma^2 = kB T / m in kcal/mol units, converted to A/ps.
		sigma := math.Sqrt(kB * temperature / m * energyToMD)
		vel[3*i] = sigma * rng.NormFloat64()
		vel[3*i+1] = sigma * rng.NormFloat64()
		vel[3*i+2] = sigma * rng.NormFloat64()
		px += m * vel[3*i]
		py += m * vel[3*i+1]
		pz += m * vel[3*i+2]
		mTot += m
	}
	for i := 0; i < sys.N; i++ {
		vel[3*i] -= px / mTot
		vel[3*i+1] -= py / mTot
		vel[3*i+2] -= pz / mTot
	}
}

// applyThermostat rescales velocities toward the target temperature with
// the Berendsen weak-coupling factor lambda = sqrt(1 + dt/tau (T0/T - 1)).
func applyThermostat(vel []float64, current, target, dt, tau float64) {
	if current <= 0 || target <= 0 {
		return
	}
	if tau <= 0 {
		tau = 0.1
	}
	ratio := 1 + dt/tau*(target/current-1)
	if ratio < 0.64 {
		ratio = 0.64 // clamp extreme rescaling (lambda >= 0.8)
	}
	lambda := math.Sqrt(ratio)
	for i := range vel {
		vel[i] *= lambda
	}
}

// TrajectoryWriter accumulates XYZ frames of a run.
type TrajectoryWriter struct {
	W     io.Writer
	Every int // write every k-th step (default every step)
	sys   *molecule.System
	n     int
	wrote int
}

// NewTrajectoryWriter wraps w for the given system.
func NewTrajectoryWriter(w io.Writer, sys *molecule.System, every int) *TrajectoryWriter {
	if every <= 0 {
		every = 1
	}
	return &TrajectoryWriter{W: w, Every: every, sys: sys}
}

// Frame records one step's coordinates.
func (tw *TrajectoryWriter) Frame(step int, energy float64, pos []float64) error {
	tw.n++
	if (tw.n-1)%tw.Every != 0 {
		return nil
	}
	tw.wrote++
	return tw.sys.WriteXYZ(tw.W, fmt.Sprintf("step %d E=%.4f", step, energy), pos)
}

// Frames returns the number of frames written.
func (tw *TrajectoryWriter) Frames() int { return tw.wrote }
