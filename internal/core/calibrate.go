package core

import (
	"fmt"

	"opalperf/internal/fit"
	"opalperf/internal/stats"
)

// Measurement is one calibration case: the application parameters of a
// run and its measured execution-time breakdown (the five response
// variables of the experimental design, Section 2.3).
type Measurement struct {
	App  App
	Par  float64 // measured parallel computation time (mean server busy)
	Seq  float64 // measured client computation time
	Comm float64 // measured client communication time
	Sync float64 // measured synchronization time
	Idle float64 // measured idle time (not modelled; reported only)
	// TotalChecks and TotalActive, when non-zero, are the engine's exact
	// distance-check and active-pair counts summed over the whole run and
	// all servers; they refine the regressors over the closed-form
	// approximations.
	TotalChecks float64
	TotalActive float64
}

func (m Measurement) checks() float64 {
	if m.TotalChecks > 0 {
		return m.TotalChecks
	}
	return float64(m.App.S) * m.App.U * checksPerUpdate(m.App.N)
}

func (m Measurement) active() float64 {
	if m.TotalActive > 0 {
		return m.TotalActive
	}
	return float64(m.App.S) * activePairs(m.App)
}

// CaseFit pairs one calibration case with the model's prediction.
type CaseFit struct {
	App                 App
	Measured, Predicted Breakdown
	MeasuredIdle        float64
}

// Report summarizes a calibration.
type Report struct {
	Machine Machine
	Cases   []CaseFit
	// MAPE and R2 compare predicted vs measured total times over the
	// calibration cases (the quality of Figure 4).
	MAPE float64
	R2   float64
}

// Calibrate fits the six platform parameters of the model to measured
// breakdowns by (non-negative) least squares, component by component, the
// procedure of Section 2.5.
func Calibrate(name string, ms []Measurement) (Report, error) {
	if len(ms) < 2 {
		return Report{}, fmt.Errorf("core: need at least 2 measurements, have %d", len(ms))
	}
	mach := Machine{Name: name}

	// Parallel computation: par = a2 * checks/p + a3 * active/p.
	rows := make([][]float64, len(ms))
	rhs := make([]float64, len(ms))
	for i, m := range ms {
		p := float64(m.App.P)
		rows[i] = []float64{m.checks() / p, m.active() / p}
		rhs[i] = m.Par
	}
	x, err := fit.NonNegativeLeastSquares(rows, rhs)
	if err != nil {
		return Report{}, fmt.Errorf("core: fitting a2/a3: %w", err)
	}
	mach.A2, mach.A3 = x[0], x[1]

	// Sequential computation: seq = a4 * s * n.
	mach.A4, err = fitThroughOrigin(ms, func(m Measurement) float64 {
		return float64(m.App.S) * float64(m.App.N)
	}, func(m Measurement) float64 { return m.Seq })
	if err != nil {
		return Report{}, fmt.Errorf("core: fitting a4: %w", err)
	}

	// Communication: comm = (1/a1) * s p (u+2) alpha n + b1 * 2 s p (u+1).
	for i, m := range ms {
		s, p, u := float64(m.App.S), float64(m.App.P), m.App.U
		rows[i] = []float64{
			s * p * (u + 2) * m.App.Alpha * float64(m.App.N),
			2 * s * p * (u + 1),
		}
		rhs[i] = m.Comm
	}
	x, err = fit.NonNegativeLeastSquares(rows, rhs)
	if err != nil {
		return Report{}, fmt.Errorf("core: fitting a1/b1: %w", err)
	}
	if x[0] <= 0 {
		return Report{}, fmt.Errorf("core: degenerate communication rate fit")
	}
	mach.A1 = 1 / x[0]
	mach.B1 = x[1]

	// Synchronization: sync = b5 * 2 s (u+1).
	mach.B5, err = fitThroughOrigin(ms, func(m Measurement) float64 {
		return 2 * float64(m.App.S) * (m.App.U + 1)
	}, func(m Measurement) float64 { return m.Sync })
	if err != nil {
		return Report{}, fmt.Errorf("core: fitting b5: %w", err)
	}

	rep := Report{Machine: mach}
	var pred, meas []float64
	for _, m := range ms {
		cf := CaseFit{
			App:          m.App,
			Measured:     Breakdown{Par: m.Par, Seq: m.Seq, Comm: m.Comm, Sync: m.Sync},
			Predicted:    mach.Predict(m.App),
			MeasuredIdle: m.Idle,
		}
		rep.Cases = append(rep.Cases, cf)
		pred = append(pred, cf.Predicted.Total())
		meas = append(meas, cf.Measured.Total())
	}
	rep.MAPE = stats.MAPE(pred, meas)
	rep.R2 = stats.R2(pred, meas)
	return rep, nil
}

// fitThroughOrigin fits y = c*x by least squares.
func fitThroughOrigin(ms []Measurement, xf, yf func(Measurement) float64) (float64, error) {
	var sxx, sxy float64
	for _, m := range ms {
		x, y := xf(m), yf(m)
		sxx += x * x
		sxy += x * y
	}
	if sxx == 0 {
		return 0, fmt.Errorf("core: degenerate regressor")
	}
	c := sxy / sxx
	if c < 0 {
		c = 0
	}
	return c, nil
}
