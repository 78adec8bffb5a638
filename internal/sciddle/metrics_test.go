package sciddle

import (
	"math"
	"strings"
	"testing"

	"opalperf/internal/platform"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

func TestMetricsOf(t *testing.T) {
	rec := trace.NewRecorder()
	// Window [0, 10]: client computes 1.5, comm 1, sync 0.5; two servers
	// compute 6 and 8 (mean 7) — components fill the wall exactly.
	rec.Segment(0, "client", vm.SegCompute, 0, 1.5)
	rec.Segment(0, "client", vm.SegComm, 1.5, 2.5)
	rec.Segment(0, "client", vm.SegSync, 2.5, 3)
	rec.Segment(1, "s0", vm.SegCompute, 0, 6)
	rec.Segment(2, "s1", vm.SegCompute, 0, 8)
	m := MetricsOf(rec, 0, []int{1, 2}, 0, 10)
	if m.Wall != 10 {
		t.Errorf("wall = %v", m.Wall)
	}
	if math.Abs(m.ClientComputeShare-0.15) > 1e-12 {
		t.Errorf("client share = %v", m.ClientComputeShare)
	}
	if math.Abs(m.ServerComputeShare-0.7) > 1e-12 {
		t.Errorf("server share = %v", m.ServerComputeShare)
	}
	if math.Abs(m.LoadImbalance-1.0/7.0) > 1e-12 {
		t.Errorf("imbalance = %v", m.LoadImbalance)
	}
	if math.Abs(m.CommShare-0.1) > 1e-12 {
		t.Errorf("comm share = %v", m.CommShare)
	}
	if math.Abs(m.SyncShare-0.05) > 1e-12 {
		t.Errorf("sync share = %v", m.SyncShare)
	}
	// Shares account for the full wall clock.
	total := m.ClientComputeShare + m.ServerComputeShare + m.CommShare + m.SyncShare + m.IdleShare
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	s := m.String()
	if !strings.Contains(s, "load imbalance") {
		t.Errorf("report = %q", s)
	}
}

func TestMetricsDegenerateWindow(t *testing.T) {
	rec := trace.NewRecorder()
	m := MetricsOf(rec, 0, nil, 5, 5)
	if m.Wall != 0 || m.ClientComputeShare != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMetricsFromRealRun(t *testing.T) {
	// End-to-end: an accounting-mode RPC run yields sensible metrics.
	sim, rec := runClient(t, platform.FastCoPs, 3, true, func(c *Conn) {
		mustPhase(c, "work", func(int) float64 { return 67e6 })
	})
	m := MetricsOf(rec, 0, []int{1, 2, 3}, 0, sim.Time())
	if m.ServerComputeShare <= 0.5 {
		t.Errorf("server compute share = %v, want dominant", m.ServerComputeShare)
	}
	if m.SyncShare <= 0 {
		t.Error("no sync share recorded")
	}
	if m.LoadImbalance > 0.05 {
		t.Errorf("imbalance = %v for balanced servers", m.LoadImbalance)
	}
}

func TestMetricsEmptyWindow(t *testing.T) {
	// A window with no recorded segments: well-defined zero shares, no NaN.
	rec := trace.NewRecorder()
	m := MetricsOf(rec, 0, []int{1, 2}, 0, 4)
	if m.Wall != 4 {
		t.Errorf("wall = %v", m.Wall)
	}
	if m.ClientComputeShare != 0 || m.ServerComputeShare != 0 ||
		m.CommShare != 0 || m.SyncShare != 0 || m.LoadImbalance != 0 {
		t.Errorf("empty-window metrics = %+v, want zero shares", m)
	}
	// The whole wall is unaccounted, hence idle.
	if math.Abs(m.IdleShare-1) > 1e-12 {
		t.Errorf("idle share = %v, want 1", m.IdleShare)
	}
}

func TestMetricsNegativeWall(t *testing.T) {
	// t1 < t0 (wall < 0) must not divide: all shares stay zero.
	rec := trace.NewRecorder()
	rec.Segment(0, "client", vm.SegCompute, 0, 1)
	m := MetricsOf(rec, 0, []int{1}, 3, 1)
	if m.Wall != -2 {
		t.Errorf("wall = %v", m.Wall)
	}
	if m.ClientComputeShare != 0 || m.ServerComputeShare != 0 ||
		m.CommShare != 0 || m.SyncShare != 0 || m.IdleShare != 0 || m.LoadImbalance != 0 {
		t.Errorf("negative-wall metrics = %+v, want all-zero shares", m)
	}
	if math.IsNaN(m.IdleShare) || math.IsInf(m.ClientComputeShare, 0) {
		t.Errorf("degenerate window produced NaN/Inf: %+v", m)
	}
}

func TestMetricsNoServers(t *testing.T) {
	// A serial run: no servers, so server share and imbalance are zero and
	// the client's own activity still decomposes the wall.
	rec := trace.NewRecorder()
	rec.Segment(0, "client", vm.SegCompute, 0, 3)
	rec.Segment(0, "client", vm.SegComm, 3, 4)
	m := MetricsOf(rec, 0, nil, 0, 8)
	if m.ServerComputeShare != 0 || m.LoadImbalance != 0 {
		t.Errorf("serverless metrics = %+v, want zero server terms", m)
	}
	if math.Abs(m.ClientComputeShare-0.375) > 1e-12 {
		t.Errorf("client share = %v", m.ClientComputeShare)
	}
	if math.Abs(m.CommShare-0.125) > 1e-12 {
		t.Errorf("comm share = %v", m.CommShare)
	}
	if math.Abs(m.IdleShare-0.5) > 1e-12 {
		t.Errorf("idle share = %v", m.IdleShare)
	}
}

func TestMetricsStringGolden(t *testing.T) {
	m := Metrics{
		Wall:               2.5,
		ClientComputeShare: 0.125,
		ServerComputeShare: 0.5,
		CommShare:          0.25,
		SyncShare:          0.05,
		IdleShare:          0.075,
		LoadImbalance:      0.1,
	}
	want := "middleware metrics over 2.5s:\n" +
		"  server computation  50.0%   client computation  12.5%\n" +
		"  communication       25.0%   synchronization      5.0%\n" +
		"  idle                 7.5%   load imbalance      10.0%\n"
	if got := m.String(); got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
}
