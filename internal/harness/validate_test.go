package harness

import (
	"strings"
	"testing"

	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func TestValidatePredictionCoPs(t *testing.T) {
	// The CoPs platforms' intrinsic weights are (near) canonical, so the
	// model prediction should track the instrumented simulation within a
	// modest band at a compute-bound configuration.
	sys := molecule.TestComplex(300, 500, 42)
	cases, err := ValidatePrediction([]*platform.Platform{platform.FastCoPs(), platform.SMPCoPs()},
		sys, NoCutoff, 1, 4, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 4 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, c := range cases {
		if c.RelErr() > 0.20 {
			t.Errorf("%s p=%d: predicted %.3f vs simulated %.3f (%.1f%%)",
				c.Platform, c.Servers, c.Predicted, c.Simulated, 100*c.RelErr())
		}
	}
	if !strings.Contains(ValidationTable(cases).String(), "predicted") {
		t.Error("table rendering broken")
	}
	sum := ValidationSummary(cases)
	if len(sum) != 2 {
		t.Errorf("summary = %v", sum)
	}
}

func TestValidatePredictionShowsT3EExtractionBias(t *testing.T) {
	// The one-rate extraction (Section 4.1) prices the T3E's cheap
	// add/mul update loop at the sqrt-penalized kernel rate, so the
	// model OVER-predicts simulated T3E times on update-heavy runs —
	// the bias EXPERIMENTS.md documents.
	sys := molecule.TestComplex(300, 500, 42)
	cases, err := ValidatePrediction([]*platform.Platform{platform.T3E900()},
		sys, EffectiveCutoff, 1, 4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	if c.Predicted <= c.Simulated {
		t.Errorf("expected over-prediction on the T3E: predicted %.3f vs simulated %.3f",
			c.Predicted, c.Simulated)
	}
}

func TestClusterRunJ90HIPPI(t *testing.T) {
	sys := molecule.TestComplex(250, 400, 7)
	cl := platform.J90Cluster(4) // client + 3 servers fit one node
	opts := md.Options{Cutoff: NoCutoff, Accounting: true, Minimize: true}

	// Within one node the cluster behaves like the single J90.
	within, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 3, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(RunSpec{Platform: platform.J90(), Sys: sys, Opts: opts, Servers: 3, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := (within.Wall - single.Wall) / single.Wall; d > 0.02 || d < -0.02 {
		t.Errorf("within-node cluster %.4f vs single %.4f (%.1f%%)", within.Wall, single.Wall, 100*d)
	}

	// Crossing nodes changes the communication profile but still works
	// and still computes the same physics.
	across, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 7, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if across.Breakdown.Comm <= 0 {
		t.Error("no communication recorded across nodes")
	}
	for i := range across.Result.Steps {
		if across.Result.Steps[i].ETotal != within.Result.Steps[i].ETotal {
			// Different server counts change summation order; compare
			// with tolerance.
			a, b := across.Result.Steps[i].ETotal, within.Result.Steps[i].ETotal
			if d := (a - b) / (1 + b); d > 1e-9 || d < -1e-9 {
				t.Fatalf("step %d energies diverge: %v vs %v", i, a, b)
			}
		}
	}
}

func TestClusterBeatsSingleNodeWhenOversubscribed(t *testing.T) {
	// With 15 servers the single 8-cpu J90 cannot play; the HIPPI
	// cluster keeps scaling — helped by the paper's own observation that
	// the intra-node socket PVM (3 MB/s, 10 ms) is slower than a real
	// network, so spreading over HIPPI nodes even lowers the per-message
	// cost.
	sys := molecule.TestComplex(1000, 2000, 8)
	cl := platform.J90Cluster(8)
	opts := md.Options{Cutoff: NoCutoff, Accounting: true, Minimize: true}
	p7, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 7, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	p15, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 15, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p15.Wall >= p7.Wall {
		t.Errorf("cluster p=15 (%.3f) should beat p=7 (%.3f)", p15.Wall, p7.Wall)
	}
}

func TestClusterReportRenders(t *testing.T) {
	sys := molecule.TestComplex(120, 200, 9)
	tab, err := ClusterReport(platform.J90Cluster(4), sys, NoCutoff, 2, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "HIPPI") || !strings.Contains(s, "nodes used") {
		t.Errorf("report:\n%s", s)
	}
}
