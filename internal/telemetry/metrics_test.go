package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// withEnabled arms the plane for one test and restores the previous state.
func withEnabled(t *testing.T) {
	t.Helper()
	prev := on.Load()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(prev) })
}

func TestCounterDisabledIsNoop(t *testing.T) {
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("t_disabled_total", "x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	c := r.Counter("t_concurrent_total", "x")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("sharded counter lost updates: %d != %d", got, workers*per)
	}
}

func TestGaugeSetWithoutEnable(t *testing.T) {
	// Gauges record state (supervisor rung) that /healthz must see even
	// when metrics are disarmed.
	SetEnabled(false)
	r := NewRegistry()
	g := r.Gauge("t_state", "x")
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "x", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.0005+0.001+0.005+0.05+5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	h.writeProm(&sb)
	out := sb.String()
	// le="0.001" is cumulative and inclusive: 0.0005 and 0.001 land there.
	for _, want := range []string{
		`t_lat_seconds_bucket{le="0.001"} 2`,
		`t_lat_seconds_bucket{le="0.01"} 3`,
		`t_lat_seconds_bucket{le="0.1"} 4`,
		`t_lat_seconds_bucket{le="+Inf"} 5`,
		`t_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecChildrenAndExposition(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	cv := r.CounterVec("t_calls_total", "x", "method")
	cv.With("nbint").Add(3)
	cv.With("update").Inc()
	if cv.With("nbint") != cv.With("nbint") {
		t.Fatal("With should return a stable child handle")
	}
	hv := r.HistogramVec("t_call_seconds", "x", "method", []float64{0.1, 1})
	hv.With("nbint").Observe(0.05)
	hv.With("update").Observe(0.5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`t_calls_total{method="nbint"} 3`,
		`t_calls_total{method="update"} 1`,
		`t_call_seconds_bucket{method="nbint",le="0.1"} 1`,
		`t_call_seconds_bucket{method="update",le="1"} 1`,
		`t_call_seconds_count{method="update"} 1`,
		"# TYPE t_call_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Metrics render sorted by name: the histogram family before counters.
	if strings.Index(out, "t_call_seconds") > strings.Index(out, "t_calls_total") {
		t.Fatalf("exposition not sorted by metric name:\n%s", out)
	}
}

func TestRunInfoMetric(t *testing.T) {
	SetRun("test-run-1")
	t.Cleanup(func() { SetRun("") })
	var sb strings.Builder
	NewRegistry().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `opal_run{id="test-run-1"} 1`) {
		t.Fatalf("missing run info metric:\n%s", sb.String())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 3)
	want := []float64{1e-6, 4e-6, 1.6e-5}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.Counter("t_dup_total", "x")
}
