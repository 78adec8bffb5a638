package md

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func TestInitVelocitiesTemperature(t *testing.T) {
	sys := molecule.TestComplex(200, 300, 9)
	vel := make([]float64, 3*sys.N)
	initVelocities(sys, vel, 300, 7)
	got := temperature(sys, vel)
	// Law of large numbers: within a few percent at 500 atoms.
	if math.Abs(got-300)/300 > 0.10 {
		t.Errorf("initial temperature = %v, want ~300", got)
	}
	// Zero net momentum.
	var px, py, pz float64
	for i := 0; i < sys.N; i++ {
		px += sys.Mass[i] * vel[3*i]
		py += sys.Mass[i] * vel[3*i+1]
		pz += sys.Mass[i] * vel[3*i+2]
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-8 {
		t.Errorf("net momentum = (%v, %v, %v)", px, py, pz)
	}
}

func TestInitVelocitiesDeterministic(t *testing.T) {
	sys := molecule.TestComplex(10, 10, 9)
	a := make([]float64, 3*sys.N)
	b := make([]float64, 3*sys.N)
	initVelocities(sys, a, 300, 1)
	initVelocities(sys, b, 300, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("velocity init not deterministic")
		}
	}
	initVelocities(sys, b, 300, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical velocities")
	}
}

func TestThermostatDrivesTemperature(t *testing.T) {
	sys := molecule.TestComplex(50, 100, 10)
	vel := make([]float64, 3*sys.N)
	initVelocities(sys, vel, 600, 3)
	// Repeated application with dt/tau pulls toward the 300 K target.
	for i := 0; i < 200; i++ {
		cur := temperature(sys, vel)
		applyThermostat(vel, cur, 300, 0.001, 0.01)
	}
	got := temperature(sys, vel)
	if math.Abs(got-300)/300 > 0.05 {
		t.Errorf("temperature after coupling = %v, want ~300", got)
	}
}

func TestThermostatGuards(t *testing.T) {
	vel := []float64{1, 2, 3}
	applyThermostat(vel, 0, 300, 0.001, 0.1) // zero current: no-op
	if vel[0] != 1 {
		t.Error("thermostat ran on zero temperature")
	}
	applyThermostat(vel, 1e-9, 300, 10, 0.1) // extreme ratio clamped
	for _, v := range vel {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("thermostat produced %v", v)
		}
	}
}

func TestDynamicsWithThermostatStaysFinite(t *testing.T) {
	sys := molecule.TestComplex(15, 30, 11)
	// Pre-relax, then run thermostatted dynamics.
	pre, _ := runSerialSim(t, sys, Options{Minimize: true, StepSize: 0.005}, 100)
	relaxed := sys.Clone()
	copy(relaxed.Pos, pre.FinalPos)
	res, _ := runSerialSim(t, relaxed, Options{
		Dt: 5e-5, InitTemperature: 300, Thermostat: 300, ThermostatTau: 0.01, Seed: 4,
	}, 30)
	last := res.Steps[len(res.Steps)-1]
	if math.IsNaN(last.ETotal) || math.IsInf(last.ETotal, 0) {
		t.Fatalf("energy = %v", last.ETotal)
	}
	if last.Temperature <= 0 || last.Temperature > 5000 {
		t.Errorf("temperature = %v", last.Temperature)
	}
}

func TestTrajectoryWriter(t *testing.T) {
	sys := molecule.TestComplex(5, 5, 12)
	var buf bytes.Buffer
	tw := NewTrajectoryWriter(&buf, sys, 2)
	res, _ := runSerialSim(t, sys, Options{Minimize: true, Trajectory: tw}, 5)
	if len(res.Steps) != 5 {
		t.Fatal("run failed")
	}
	if tw.Frames() != 3 { // steps 0, 2, 4
		t.Errorf("frames = %d, want 3", tw.Frames())
	}
	// Each frame has n+2 lines.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3*(sys.N+2) {
		t.Errorf("trajectory lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "step 0") || !strings.Contains(lines[1], "E=") {
		t.Errorf("comment = %q", lines[1])
	}
}

func TestTrajectoryOnParallelRun(t *testing.T) {
	sys := molecule.TestComplex(6, 6, 13)
	var buf bytes.Buffer
	tw := NewTrajectoryWriter(&buf, sys, 1)
	opts := Options{Minimize: true, Trajectory: tw}
	par, _, _ := runParallelSim(t, platform.J90(), sys, opts, 2, 3)
	if par == nil || tw.Frames() != 3 {
		t.Fatalf("frames = %d", tw.Frames())
	}
}

// temperature is the instantaneous temperature of a velocity set, as the
// engine computes it after each dynamics step.
func temperature(sys *molecule.System, vel []float64) float64 {
	var kinetic float64
	for i := 0; i < sys.N; i++ {
		v2 := vel[3*i]*vel[3*i] + vel[3*i+1]*vel[3*i+1] + vel[3*i+2]*vel[3*i+2]
		kinetic += 0.5 * sys.Mass[i] * v2 / energyToMD
	}
	return 2 * kinetic / (3 * float64(sys.N) * kB)
}
