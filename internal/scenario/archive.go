package scenario

import (
	"fmt"

	"opalperf/internal/archive"
)

// Warehouse projection: one archived RunSummary per scenario sweep, so
// `scenario run -archive DIR` feeds the same cross-run analytics plane
// opald and opal do — opalquery percentiles over a 27-scenario corpus
// sweep, chaos-vs-fault-free cohort splits, watchdog baselines.  A
// summary carries the run identity (Report.Spec) and the scenario name
// as its label; DESIGN.md §17 has the cohort rule.

// Chaos reports whether the scenario arms any adversarial machinery —
// the cohort split opalquery's percentiles -split uses.
func (s *Spec) Chaos() bool {
	if s.Faults != nil || s.Kills != nil {
		return true
	}
	for _, e := range s.Events {
		switch e.Action {
		case "kill_server", "inject_fault", "restart":
			return true
		}
	}
	return false
}

// Summarize projects one sweep report onto the archive's summary record.
// The run ID is "name#NN" — unique within a sweep, meaningful in
// opalquery list output.
func Summarize(spec *Spec, r Report) archive.RunSummary {
	return archive.RunSummary{
		Run:    fmt.Sprintf("%s#%02d", spec.Name, r.Sweep),
		Spec:   r.Spec,
		Label:  spec.Name,
		System: spec.Fleet.Size,

		Platform: spec.Fleet.Platform,
		Servers:  spec.Fleet.Servers,
		Steps:    r.Steps,

		Wall:         r.Wall,
		EnergiesHash: r.EnergiesHash,
		FinalEnergy:  r.FinalEnergy,

		Respawns:    r.Respawns,
		Recoveries:  r.Recoveries,
		Faults:      r.Injected,
		Checkpoints: r.Checkpoints,
		Chaos:       spec.Chaos(),

		OracleAnomalies: r.Anomalies,

		LoDMacroPhases:    r.LoDMacroPhases,
		LoDFallbackPhases: r.LoDFallbackPhases,
	}
}
