package core

import (
	"math"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// syntheticMeasurements generates exact measurements from a known machine
// over a small factorial design.
func syntheticMeasurements(truth Machine) []Measurement {
	var ms []Measurement
	sizes := []*molecule.System{
		molecule.TestComplex(50, 80, 1),
		molecule.TestComplex(90, 160, 2),
	}
	for _, sys := range sizes {
		for _, p := range []int{1, 2, 4, 7} {
			for _, cutoff := range []float64{60, 10} {
				for _, up := range []int{1, 10} {
					app := AppFor(sys, cutoff, up, p, 10)
					ms = append(ms, Measurement{
						App:  app,
						Par:  truth.ParCompTime(app),
						Seq:  truth.SeqCompTime(app),
						Comm: truth.CommTime(app),
						Sync: truth.SyncTime(app),
					})
				}
			}
		}
	}
	return ms
}

func TestCalibrateRecoversTruth(t *testing.T) {
	truth := MachineFor(platform.J90(), 0.63)
	rep, err := Calibrate("test", syntheticMeasurements(truth))
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Machine
	check := func(name string, g, w float64) {
		if math.Abs(g-w) > 1e-6*(1+math.Abs(w)) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	check("a1", got.A1, truth.A1)
	check("b1", got.B1, truth.B1)
	check("a2", got.A2, truth.A2)
	check("a3", got.A3, truth.A3)
	check("a4", got.A4, truth.A4)
	check("b5", got.B5, truth.B5)
	if rep.MAPE > 1e-6 {
		t.Errorf("MAPE = %v on exact data", rep.MAPE)
	}
	if rep.R2 < 1-1e-9 {
		t.Errorf("R2 = %v on exact data", rep.R2)
	}
}

func TestCalibrateWithNoise(t *testing.T) {
	truth := MachineFor(platform.J90(), 0.63)
	ms := syntheticMeasurements(truth)
	// Multiplicative 3% "measurement noise", deterministic pattern.
	for i := range ms {
		f := 1 + 0.03*float64(i%5-2)/2
		ms[i].Par *= f
		ms[i].Comm *= f
		ms[i].Seq *= f
		ms[i].Sync *= f
	}
	rep, err := Calibrate("noisy", ms)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MAPE > 0.05 {
		t.Errorf("MAPE = %v, want < 5%% under 3%% noise", rep.MAPE)
	}
	if rep.R2 < 0.99 {
		t.Errorf("R2 = %v", rep.R2)
	}
	// Parameters within 15% of the truth.
	rel := func(g, w float64) float64 { return math.Abs(g-w) / (1e-30 + math.Abs(w)) }
	if rel(rep.Machine.A3, truth.A3) > 0.15 {
		t.Errorf("a3 = %v vs %v", rep.Machine.A3, truth.A3)
	}
	if rel(rep.Machine.A1, truth.A1) > 0.15 {
		t.Errorf("a1 = %v vs %v", rep.Machine.A1, truth.A1)
	}
}

func TestCalibrateUsesEngineCounts(t *testing.T) {
	// When the exact check/active counts are supplied, they override the
	// closed-form regressors.
	truth := MachineFor(platform.J90(), 0.63)
	sys := molecule.TestComplex(60, 90, 3)
	var ms []Measurement
	for _, p := range []int{1, 3, 5} {
		for _, up := range []int{1, 10} {
			app := AppFor(sys, 60, up, p, 10)
			checks := float64(app.S) * app.U * float64(app.N*(app.N-1)/2) * 0.97
			active := float64(app.S) * float64(app.N*(app.N-1)/2) * 0.95
			ms = append(ms, Measurement{
				App:         app,
				Par:         truth.A2*checks/float64(p) + truth.A3*active/float64(p),
				Seq:         truth.SeqCompTime(app),
				Comm:        truth.CommTime(app),
				Sync:        truth.SyncTime(app),
				TotalChecks: checks,
				TotalActive: active,
			})
		}
	}
	rep, err := Calibrate("counts", ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Machine.A2-truth.A2) > 1e-8*truth.A2 {
		t.Errorf("a2 = %v, want %v", rep.Machine.A2, truth.A2)
	}
	if math.Abs(rep.Machine.A3-truth.A3) > 1e-8*truth.A3 {
		t.Errorf("a3 = %v, want %v", rep.Machine.A3, truth.A3)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate("x", nil); err == nil {
		t.Error("no measurements should fail")
	}
	if _, err := Calibrate("x", []Measurement{{}}); err == nil {
		t.Error("single measurement should fail")
	}
}

func TestMeasurementDefaults(t *testing.T) {
	app := App{S: 10, U: 1, N: 100}
	m2 := Measurement{App: app}
	if m2.checks() != 10*float64(100*99/2) {
		t.Errorf("default checks = %v", m2.checks())
	}
	m2.TotalChecks = 42
	if m2.checks() != 42 {
		t.Error("explicit checks ignored")
	}
}
