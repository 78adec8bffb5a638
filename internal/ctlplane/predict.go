package ctlplane

import (
	"fmt"
	"sync"

	"opalperf/internal/core"
	"opalperf/internal/platform"
)

// PredictResponse answers the analytic model's what-if question about a
// job spec: what does the execution time of this run decompose into on
// that platform?  No simulation runs — the answer comes from the
// calibrated platform tables in microseconds, which is the whole
// calibrate-once/predict-many economics of the read path.
type PredictResponse struct {
	Platform    string  `json:"platform"`
	Machine     string  `json:"machine"`
	Size        string  `json:"size"`
	Servers     int     `json:"servers"`
	Steps       int     `json:"steps"`
	N           int     `json:"mass_centers"`
	Par         float64 `json:"par_seconds"`
	Seq         float64 `json:"seq_seconds"`
	Comm        float64 `json:"comm_seconds"`
	Sync        float64 `json:"sync_seconds"`
	Total       float64 `json:"total_seconds"`
	SpeedupVsP1 float64 `json:"speedup_vs_p1"`
}

// predictor serves model predictions from memoized platform tables.  The
// expensive pieces — generating the molecular system and extracting the
// machine parameters from the platform's key data — are computed once
// per (size, scale) and (platform, size, scale) respectively; a request
// after warm-up is pure closed-form arithmetic (~µs).
type predictor struct {
	systems *systemCache

	mu       sync.Mutex
	machines map[string]core.Machine
}

func newPredictor(systems *systemCache) *predictor {
	return &predictor{systems: systems, machines: map[string]core.Machine{}}
}

func (p *predictor) machine(pl *platform.Platform, key string, gamma float64) core.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.machines[key]
	if !ok {
		m = core.MachineFor(pl, gamma)
		p.machines[key] = m
	}
	return m
}

// predict answers one canonical spec.  The model decomposes the
// client/server split, so a serial spec has no prediction.
func (p *predictor) predict(c JobSpec) (PredictResponse, error) {
	if c.Servers < 1 {
		return PredictResponse{}, fmt.Errorf("ctlplane: predict needs parallel servers (>= 1): the model decomposes the client/server split")
	}
	pl, err := platform.ByName(c.Platform)
	if err != nil {
		return PredictResponse{}, fmt.Errorf("ctlplane: %w", err)
	}
	sys := p.systems.get(c.Size, c.Scale)
	key := fmt.Sprintf("%s|%s|%g", c.Platform, c.Size, c.Scale)
	m := p.machine(pl, key, sys.Gamma())
	app := core.AppFor(sys, c.Cutoff, c.UpdateEvery, c.Servers, c.Steps)
	b := m.Predict(app)
	app1 := app
	app1.P = 1
	t1 := m.Total(app1)
	resp := PredictResponse{
		Platform: c.Platform, Machine: m.Name, Size: c.Size,
		Servers: c.Servers, Steps: c.Steps, N: sys.N,
		Par: b.Par, Seq: b.Seq, Comm: b.Comm, Sync: b.Sync,
		Total: b.Total(),
	}
	if resp.Total > 0 {
		resp.SpeedupVsP1 = t1 / resp.Total
	}
	return resp, nil
}
