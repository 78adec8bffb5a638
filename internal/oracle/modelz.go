package oracle

import (
	"encoding/json"
	"net/http"

	"opalperf/internal/core"
)

// The /modelz endpoint: the oracle's predicted-vs-measured state as one
// JSON document — the model-health counterpart of /healthz.

// MachineParams is the JSON shape of a machine's six parameters.
type MachineParams struct {
	Name string  `json:"name"`
	A1   float64 `json:"a1"`
	B1   float64 `json:"b1"`
	A2   float64 `json:"a2"`
	A3   float64 `json:"a3"`
	A4   float64 `json:"a4"`
	B5   float64 `json:"b5"`
}

func paramsOf(m core.Machine) MachineParams {
	return MachineParams{Name: m.Name, A1: m.A1, B1: m.B1, A2: m.A2, A3: m.A3, A4: m.A4, B5: m.B5}
}

// Snapshot is the full /modelz document.
type Snapshot struct {
	Run       string        `json:"run"`
	Windows   int           `json:"windows"`
	Anomalies int           `json:"anomalies"`
	Window    int           `json:"window_steps"`
	Z         float64       `json:"z_threshold"`
	Machine   MachineParams `json:"machine"`
	// Refit is the latest sliding-window recalibration, or null: drift of
	// the fitted parameters relative to Machine is the model's ageing.
	Refit     *MachineParams `json:"refit,omitempty"`
	RefitMAPE float64        `json:"refit_mape,omitempty"`
	RefitR2   float64        `json:"refit_r2,omitempty"`
	// Last is the most recent evaluated window, or null before the first
	// window closes.
	Last *WindowReport `json:"last,omitempty"`
}

// Snapshot captures the oracle's current state.
func (o *Oracle) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := Snapshot{
		Windows:   o.windows,
		Anomalies: o.anomalies,
		Window:    o.cfg.Window,
		Z:         zThreshold,
		Machine:   paramsOf(o.cfg.Machine),
	}
	if o.scope != nil {
		s.Run = o.scope.ID
	}
	if o.refit != nil {
		p := paramsOf(o.refit.Machine)
		s.Refit = &p
		s.RefitMAPE = o.refit.MAPE
		s.RefitR2 = o.refit.R2
	}
	if o.last != nil {
		cp := *o.last
		cp.Terms = append([]TermReport(nil), o.last.Terms...)
		s.Last = &cp
	}
	return s
}

// StreamExtra is the oracle's compact contribution to /streamz
// snapshots: window/anomaly counts and the last window's per-term
// z-scores.  A front door names it among its telemetry.Plane's Extras
// under "oracle".
func (o *Oracle) StreamExtra() any {
	o.mu.Lock()
	defer o.mu.Unlock()
	ex := map[string]any{"windows": o.windows, "anomalies": o.anomalies}
	if o.last != nil {
		z := make(map[string]float64, len(o.last.Terms))
		for _, t := range o.last.Terms {
			z[t.Term] = t.Z
		}
		ex["window"] = o.last.Index
		ex["z"] = z
	}
	return ex
}

// Handler serves the snapshot as JSON; a front door mounts it as
// "/modelz" among its telemetry.Plane's Endpoints.
func (o *Oracle) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Snapshot())
	})
}
