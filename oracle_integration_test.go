package opalperf

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"opalperf/internal/core"
	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/oracle"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
)

// calibrateFor fits a J90 machine from a handful of accounting runs on
// sys, the way `figures -only fig4` does but scoped to the factors the
// oracle test exercises.  The case list varies servers, update frequency and
// cut-off so every NNLS component has rank, and includes the oracle run's
// own configuration (3 servers, 10 A, update every 2).
func calibrateFor(t *testing.T, sys *molecule.System) core.Machine {
	t.Helper()
	cases := []struct {
		servers, update int
		cutoff          float64
	}{
		{3, 2, harness.EffectiveCutoff},
		{2, 1, harness.EffectiveCutoff},
		{5, 2, harness.NoCutoff},
		{4, 1, harness.NoCutoff},
	}
	var ms []core.Measurement
	for _, c := range cases {
		spec := harness.RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts: md.Options{
				Cutoff:      c.cutoff,
				UpdateEvery: c.update,
				Accounting:  true,
				Minimize:    true,
			},
			Servers: c.servers,
			Steps:   8,
		}
		out, err := harness.Run(spec)
		if err != nil {
			t.Fatalf("calibration run (p=%d): %v", c.servers, err)
		}
		ms = append(ms, harness.MeasurementOf(spec, out))
	}
	rep, err := core.Calibrate("j90-fit", ms)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return rep.Machine
}

// journalEvents decodes the JSONL journal into generic maps per type.
func journalEvents(t *testing.T, buf *bytes.Buffer) map[string][]map[string]any {
	t.Helper()
	out := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		typ, _ := m["type"].(string)
		out[typ] = append(out[typ], m)
	}
	return out
}

// TestOracleFaultFreeWithinTolerance is the first acceptance scenario: on
// a fault-free virtual-J90 run checked against a machine calibrated from
// the same engine, every window's residuals stay within the calibration
// tolerance and no anomaly fires.
func TestOracleFaultFreeWithinTolerance(t *testing.T) {
	sys := paper.BenchScale().Sizes["medium"]
	machine := calibrateFor(t, sys)

	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	var journal bytes.Buffer
	telemetry.StartJournal(&journal, 64)
	defer telemetry.StopJournal()

	o := oracle.New(oracle.Config{
		Machine:     machine,
		Sys:         sys,
		Cutoff:      harness.EffectiveCutoff,
		UpdateEvery: 2,
		Servers:     3,
		Window:      2, // a multiple of UpdateEvery: uniform windows
	})
	if _, err := harness.Run(harness.RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts: md.Options{
			Cutoff:      harness.EffectiveCutoff,
			UpdateEvery: 2,
			Accounting:  true,
			Minimize:    true,
		},
		Servers: 3,
		Steps:   8,
		Oracle:  o,
	}); err != nil {
		t.Fatal(err)
	}

	if got := o.Windows(); got != 4 {
		t.Fatalf("windows = %d, want 4 (8 steps / window 2)", got)
	}
	if got := o.Anomalies(); got != 0 {
		t.Fatalf("fault-free run raised %d anomalies", got)
	}
	last := o.Last()
	if last == nil || last.Partial {
		t.Fatalf("last window = %+v, want a full window", last)
	}
	for _, tr := range last.Terms {
		scale := math.Max(math.Abs(tr.Predicted), math.Abs(tr.Measured))
		if math.Abs(tr.Residual) > 0.25*scale+1e-6 {
			t.Errorf("term %s out of calibration tolerance: predicted %.6g measured %.6g",
				tr.Term, tr.Predicted, tr.Measured)
		}
		t.Logf("term %-4s predicted %.6g measured %.6g residual %+.3g z %+.2f",
			tr.Term, tr.Predicted, tr.Measured, tr.Residual, tr.Z)
	}

	evs := journalEvents(t, &journal)
	if len(evs["oracle_start"]) != 1 || len(evs["oracle_finish"]) != 1 {
		t.Fatalf("oracle lifecycle events missing: %d start, %d finish",
			len(evs["oracle_start"]), len(evs["oracle_finish"]))
	}
	if n := len(evs["oracle_anomaly"]); n != 0 {
		t.Fatalf("journal has %d oracle_anomaly events:\n%s", n, journal.String())
	}
}

// TestOracleFlagsKillServerAnomaly is the second acceptance scenario: an
// administrative kill mid-run makes the oracle attribute the deviation to
// the communication/synchronization side of the model (the measured
// window folds recovery into comm), raise oracle_anomaly and degrade
// /healthz.
func TestOracleFlagsKillServerAnomaly(t *testing.T) {
	sys := paper.BenchScale().Sizes["small"]
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	run := &telemetry.Scope{}
	var journal bytes.Buffer
	telemetry.StartJournal(&journal, 64)
	defer telemetry.StopJournal()

	o := oracle.New(oracle.Config{
		Machine:     core.MachineFor(platform.J90(), sys.Gamma()),
		Sys:         sys,
		Cutoff:      harness.EffectiveCutoff,
		UpdateEvery: 2,
		Servers:     3,
		// The kill lands at step 9, inside window 4 (steps 8-10): by then
		// the EWMA has seen 4 clean windows, past its warm-up.
		Window: 2,
	})
	if _, err := harness.Run(harness.RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts: md.Options{
			Cutoff:        harness.EffectiveCutoff,
			UpdateEvery:   2,
			Minimize:      true,
			SelfHeal:      true,
			FaultTolerant: true,
			Kills:         fault.KillSchedule{9: {1}}.Func(),
		},
		Servers: 3,
		Steps:   12,
		Oracle:  o,
		Scope:   run,
	}); err != nil {
		t.Fatal(err)
	}

	if got := o.Anomalies(); got < 1 {
		t.Fatalf("kill-server run raised %d anomalies, want >= 1", got)
	}
	evs := journalEvents(t, &journal)
	if len(evs["oracle_anomaly"]) == 0 {
		t.Fatalf("journal has no oracle_anomaly event:\n%s", journal.String())
	}
	// The deviation must be attributed to the comm/sync side of the model,
	// not to computation: the kill costs transfers, barriers and recovery.
	for _, ev := range evs["oracle_anomaly"] {
		term, _ := ev["term"].(string)
		if term != "comm" && term != "sync" {
			t.Errorf("anomaly attributed to %q, want comm or sync: %v", term, ev)
		}
	}
	if state, ok := run.Health(); ok || state != "model_anomaly" {
		t.Errorf("anomaly did not degrade health: state=%q ok=%v", state, ok)
	}
}
